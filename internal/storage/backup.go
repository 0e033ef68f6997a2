package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/page"
)

// ErrBadSnapshot reports a corrupt or truncated snapshot.
var ErrBadSnapshot = errors.New("storage: malformed snapshot")

// snapshotMagic guards against restoring foreign blobs.
const snapshotMagic = uint32(0x41555253) // "AURS"

// Base-image tags in the snapshot encoding. A snapshot carries every image
// inline; a backup manifest replaces each image with the object version
// that holds it (see BackupNow).
const (
	imageNone   = 0 // no materialized base: the page lives in its chain
	imageInline = 1 // page.Size bytes follow
	imageStaged = 2 // a uint64 object version of the page's image key follows
)

// Snapshot serialises the segment's full durable state: materialized base
// pages, retained log records, CPL index and consistency points. It is the
// payload of peer-to-peer segment repair (§2.3) and, with staged images in
// place of inline ones, of continuous backup (BackupNow).
func (n *Node) Snapshot() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.encodeStateLocked(nil)
}

// encodeStateLocked encodes the segment's state. With a nil stage every
// base image goes inline; otherwise stage is called for each page that has
// one and the encoding carries the object version it returns.
func (n *Node) encodeStateLocked(stage func(core.PageID, *pageState) int) []byte {
	var buf []byte
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put32(snapshotMagic)

	// Pages, sorted for determinism.
	ids := make([]core.PageID, 0, len(n.pages))
	for id := range n.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	put32(uint32(len(ids)))
	for _, id := range ids {
		ps := n.pages[id]
		put64(uint64(id))
		switch {
		case ps.base == nil:
			buf = append(buf, imageNone)
		case stage == nil:
			buf = append(buf, imageInline)
			buf = append(buf, ps.base...)
		default:
			buf = append(buf, imageStaged)
			put64(uint64(stage(id, ps)))
		}
	}

	// Records, sorted by LSN (the key index is already in order).
	put32(uint32(len(n.logIdx)))
	for _, lsn := range n.logIdx {
		buf = n.log[lsn].AppendEncode(buf)
	}

	// CPL index and points.
	put32(uint32(len(n.cpls)))
	for _, c := range n.cpls {
		put64(uint64(c))
	}
	put64(uint64(n.vdl))
	put64(uint64(n.pgmrpl))
	put64(uint64(n.gcTail))
	put64(n.trunc.Epoch)
	put64(uint64(n.trunc.From))
	put64(uint64(n.trunc.To))
	put64(n.geomEpoch)
	return buf
}

// LoadSnapshot replaces the node's state with the snapshot contents. It is
// the receive half of repair.
func (n *Node) LoadSnapshot(buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loadStateLocked(buf, nil)
}

// LoadManifest replaces the node's state with a backup manifest that was
// stored under key in store, fetching each staged base image by the exact
// object version the manifest names. It is the restore half of backup.
func (n *Node) LoadManifest(store *objstore.Store, key string, manifest []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loadStateLocked(manifest, func(id core.PageID, version int) ([]byte, error) {
		return store.GetVersion(pageKey(key, id), version)
	})
}

// loadStateLocked decodes a snapshot or, when fetch resolves staged images,
// a backup manifest. Every page state it builds starts unstaged, so the
// next backup stages the loaded images under this node's own keys.
func (n *Node) loadStateLocked(buf []byte, fetch func(core.PageID, int) ([]byte, error)) error {
	off := 0
	need := func(k int) error {
		if len(buf)-off < k {
			return ErrBadSnapshot
		}
		return nil
	}
	get32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	magic, err := get32()
	if err != nil || magic != snapshotMagic {
		return ErrBadSnapshot
	}

	pages := make(map[core.PageID]*pageState)
	log := make(map[core.LSN]*core.Record)

	nPages, err := get32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nPages; i++ {
		id, err := get64()
		if err != nil {
			return err
		}
		if err := need(1); err != nil {
			return err
		}
		tag := buf[off]
		off++
		ps := &pageState{}
		switch {
		case tag == imageNone:
		case tag == imageInline:
			if err := need(page.Size); err != nil {
				return err
			}
			ps.base = append(page.Page(nil), buf[off:off+page.Size]...)
			off += page.Size
		case tag == imageStaged && fetch != nil:
			version, err := get64()
			if err != nil {
				return err
			}
			img, err := fetch(core.PageID(id), int(version))
			if err != nil {
				return fmt.Errorf("%w: page %d: %w", ErrBadSnapshot, id, err)
			}
			if len(img) != page.Size {
				return fmt.Errorf("%w: page %d: staged image is %d bytes", ErrBadSnapshot, id, len(img))
			}
			ps.base = img
		default:
			return fmt.Errorf("%w: page %d: image tag %d", ErrBadSnapshot, id, tag)
		}
		pages[core.PageID(id)] = ps
	}

	nRecs, err := get32()
	if err != nil {
		return err
	}
	gaps := core.NewGapTracker(core.ZeroLSN)
	for i := uint32(0); i < nRecs; i++ {
		r, used, err := core.DecodeRecord(buf[off:])
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrBadSnapshot, i, err)
		}
		off += used
		cl := r.Clone()
		log[cl.LSN] = &cl
		if cl.PageRecord() {
			ps := pages[cl.Page]
			if ps == nil {
				ps = &pageState{}
				pages[cl.Page] = ps
			}
			ps.chain = append(ps.chain, &cl)
		}
	}
	for _, ps := range pages {
		sort.Slice(ps.chain, func(i, j int) bool { return ps.chain[i].LSN < ps.chain[j].LSN })
	}

	nCPL, err := get32()
	if err != nil {
		return err
	}
	cpls := make([]core.LSN, 0, nCPL)
	for i := uint32(0); i < nCPL; i++ {
		v, err := get64()
		if err != nil {
			return err
		}
		cpls = append(cpls, core.LSN(v))
	}
	vdl, err := get64()
	if err != nil {
		return err
	}
	pgmrpl, err := get64()
	if err != nil {
		return err
	}
	gcTail, err := get64()
	if err != nil {
		return err
	}
	epoch, err := get64()
	if err != nil {
		return err
	}
	from, err := get64()
	if err != nil {
		return err
	}
	to, err := get64()
	if err != nil {
		return err
	}
	geomEpoch, err := get64()
	if err != nil {
		return err
	}

	// Rebuild the gap tracker: the retained log chains from the GC boundary
	// (everything at or below gcTail lives only in materialized pages and
	// was complete when coalesced).
	gaps = core.NewGapTracker(core.LSN(gcTail))
	idx := make([]core.LSN, 0, len(log))
	for _, r := range sortedRecords(log) {
		gaps.Add(r.PrevLSN, r.LSN)
		idx = append(idx, r.LSN)
	}

	n.pages = pages
	n.log = log
	n.logIdx = idx
	n.cpls = cpls
	n.vdl = core.LSN(vdl)
	n.pgmrpl = core.LSN(pgmrpl)
	n.gcTail = core.LSN(gcTail)
	n.trunc = core.TruncationRange{Epoch: epoch, From: core.LSN(from), To: core.LSN(to)}
	n.geomEpoch = geomEpoch
	n.gaps = gaps
	n.wiped = false
	return nil
}

func sortedRecords(log map[core.LSN]*core.Record) []*core.Record {
	out := make([]*core.Record, 0, len(log))
	for _, r := range log {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out
}

// BackupKey returns the object-store key of this segment's backup
// manifests, namespaced by tenant volume so two volumes sharing a store can
// never read each other's backups. Staged base images live below it, one
// key per page (pageKey); each manifest version names the exact image
// versions it was written against, so a restore of any manifest version is
// self-consistent.
func (n *Node) BackupKey() string {
	return fmt.Sprintf("vol%d/backup/pg%04d/seg%d", uint32(n.cfg.Vol), n.cfg.Seg.PG, n.cfg.Seg.Replica)
}

// pageKey is the object key holding the staged base images of page id for
// the segment whose manifests live at key.
func pageKey(key string, id core.PageID) string {
	return fmt.Sprintf("%s/page%d", key, uint64(id))
}

// BackupNow stages the segment's state to the object store (Figure 4
// step 6) and returns the manifest's version id, or 0 if no store is
// attached or the segment's disk has failed. Only base images changed
// since they were last staged are uploaded; the manifest written under
// BackupKey carries everything else inline and names each image by its
// object version, so a round costs in proportion to what changed, not to
// the segment's size. Images are staged under the node lock while the
// manifest is encoded, so the manifest and the images it names agree.
func (n *Node) BackupNow() int {
	if n.cfg.Store == nil || n.down.Load() || n.ssd.Failed() {
		return 0
	}
	key := n.BackupKey()
	staged := 0
	n.mu.Lock()
	manifest := n.encodeStateLocked(func(id core.PageID, ps *pageState) int {
		if ps.staged == 0 {
			ps.staged = n.cfg.Store.Put(pageKey(key, id), ps.base)
			staged++
		}
		return ps.staged
	})
	n.mu.Unlock()
	if err := n.ssd.Read(len(manifest) + staged*page.Size); err != nil {
		return 0
	}
	v := n.cfg.Store.Put(key, manifest)
	n.backups.Add(1)
	return v
}

// RestoreFromBackup loads the newest backup manifest from the object
// store, charging the disk for the manifest and for every image it loads.
func (n *Node) RestoreFromBackup() error {
	if n.cfg.Store == nil {
		return errors.New("storage: no object store attached")
	}
	key := n.BackupKey()
	manifest, err := n.cfg.Store.Get(key)
	if err != nil {
		return err
	}
	if err := n.ssd.Write(len(manifest)); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loadStateLocked(manifest, func(id core.PageID, version int) ([]byte, error) {
		if err := n.ssd.Write(page.Size); err != nil {
			return nil, err
		}
		return n.cfg.Store.GetVersion(pageKey(key, id), version)
	})
}
