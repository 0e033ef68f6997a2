package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aurora/internal/btree"
	"aurora/internal/bufcache"
	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
	"aurora/internal/storage"
)

// The layer probes call each layer's public functions directly, outside
// any cluster, on inputs shaped like the workload: the same 20k-row table
// with the same seed-derived values, built into a B+-tree, and the redo
// that the workload's transactions produce on it. Each probe reports the
// median of probeReps timed passes, so one slow pass does not move it.
const (
	probeReps   = 5
	probeTxns   = 1000 // workload-shaped transactions per pass
	probeGroup  = 2    // transactions per framed group (one per connection)
	probePG     = 0    // the protection group the storage probes host
	probeBackup = 4    // backups per pass
)

// memStore is an in-memory btree.Store: the writer's cache with nothing
// behind it.
type memStore map[core.PageID]page.Page

func (s memStore) Page(id core.PageID) (page.Page, error) {
	p, ok := s[id]
	if !ok {
		return nil, fmt.Errorf("page %d not found", id)
	}
	return p, nil
}

func (s memStore) FreshPage(id core.PageID) (page.Page, error) {
	p := page.New(id)
	s[id] = p
	return p, nil
}

// layerInputs is the workload-shaped material the probes share.
type layerInputs struct {
	t     *table
	store memStore
	tree  *btree.Tree
	pgOf  func(core.PageID) core.PGID
	rng   *rand.Rand
	puts  int // Puts per transaction
	cache int // buffer cache pages
}

func newLayerInputs(w *workload, seed int64) (*layerInputs, error) {
	in := &layerInputs{
		t:     newTable(seed),
		store: make(memStore),
		pgOf:  core.UniformGeometry(4).PG,
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		puts:  4,
		cache: w.cachePages,
	}
	if w.name == "oltp-mixed" {
		in.puts = 2
	}
	if in.cache == 0 {
		in.cache = 4096
	}
	tree, err := btree.Create(in.store, btree.NewRecorder())
	if err != nil {
		return nil, err
	}
	in.tree = tree
	rec := btree.NewRecorder()
	for i := 0; i < tableRows; i++ {
		if err := tree.Put(rec, in.t.keys[i], in.t.value(i, 0)); err != nil {
			return nil, fmt.Errorf("load row %d: %w", i, err)
		}
		rec.Reset()
	}
	return in, nil
}

// layerResult is one probe metric.
type layerResult struct {
	name, unit string
	value      float64
}

// runProbes runs every layer probe and returns their metrics.
func runProbes(w *workload, seed int64) ([]layerResult, error) {
	in, err := newLayerInputs(w, seed)
	if err != nil {
		return nil, err
	}
	var out []layerResult
	add := func(name, unit string, v float64) { out = append(out, layerResult{name, unit, v}) }

	getNs, putNs, mtrs, err := in.btreeProbe()
	if err != nil {
		return nil, err
	}
	add("btree.get.ns", "ns", getNs)
	add("btree.put.ns", "ns", putNs)

	frameNs, frameAllocs, err := frameProbe(mtrs)
	if err != nil {
		return nil, err
	}
	add("core.frame_group.ns_per_record", "ns", frameNs)
	add("core.frame_group.allocs_per_record", "allocs", frameAllocs)

	applyNs, err := in.applyProbe(mtrs)
	if err != nil {
		return nil, err
	}
	add("page.apply.ns_per_record", "ns", applyNs)

	st, err := in.storageProbes(mtrs)
	if err != nil {
		return nil, err
	}
	add("storage.ingest.ns_per_batch", "ns", st.ingestNs)
	add("storage.read_page.ns", "ns", st.readNs)
	add("storage.backup.ns", "ns", st.backupNs)
	add("storage.backup.bytes", "B", st.backupBytes)

	sendNs, err := sendProbe(st.batchBytes)
	if err != nil {
		return nil, err
	}
	add("netsim.send_bytes.ns_per_msg", "ns", sendNs)

	hitNs, evictNs := in.cacheProbes()
	add("bufcache.get_hit.ns", "ns", hitNs)
	add("bufcache.put_evict.ns", "ns", evictNs)
	return out, nil
}

// medianOf runs pass probeReps times and returns the median result.
func medianOf(pass func() float64) float64 {
	vs := make([]float64, probeReps)
	for i := range vs {
		vs[i] = pass()
	}
	return median(vs)
}

// btreeProbe times point Gets of random keys and Puts that update random
// keys with new values, and returns the redo of the Puts grouped into
// workload-shaped transactions for the probes below.
func (in *layerInputs) btreeProbe() (getNs, putNs float64, mtrs []*core.MTR, err error) {
	getNs = medianOf(func() float64 {
		t0 := time.Now()
		for n := 0; n < probeTxns*in.puts; n++ {
			if _, ok, gerr := in.tree.Get(in.t.keys[in.rng.Intn(tableRows)]); gerr != nil || !ok {
				err = fmt.Errorf("btree get: found=%v err=%v", ok, gerr)
			}
		}
		return float64(time.Since(t0)) / float64(probeTxns*in.puts)
	})
	if err != nil {
		return 0, 0, nil, err
	}
	rec := btree.NewRecorder()
	ver := uint32(1)
	putNs = medianOf(func() float64 {
		mtrs = mtrs[:0]
		var spent time.Duration
		for x := 0; x < probeTxns; x++ {
			m := &core.MTR{Txn: uint64(x + 1)}
			for p := 0; p < in.puts; p++ {
				i := in.rng.Intn(tableRows)
				v := in.t.value(i, ver)
				t0 := time.Now()
				perr := in.tree.Put(rec, in.t.keys[i], v)
				spent += time.Since(t0)
				if perr != nil {
					err = perr
				}
			}
			if aerr := rec.AppendRecords(m, in.pgOf); aerr != nil {
				err = aerr
			}
			rec.Reset()
			mtrs = append(mtrs, m)
		}
		ver++
		return float64(spent) / float64(probeTxns*in.puts)
	})
	return getNs, putNs, mtrs, err
}

func countRecords(mtrs []*core.MTR) int {
	n := 0
	for _, m := range mtrs {
		n += len(m.Records)
	}
	return n
}

// frameProbe frames the transactions in groups of probeGroup through
// one framer, releasing each group, and reports time and heap allocations
// per record.
func frameProbe(mtrs []*core.MTR) (nsPerRec, allocsPerRec float64, err error) {
	alloc := core.NewAllocator(core.ZeroLSN, 0)
	f := core.NewFramer(alloc, nil)
	ctx := context.Background()
	recs := countRecords(mtrs)
	pass := func() (time.Duration, uint64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i+probeGroup <= len(mtrs); i += probeGroup {
			g, ferr := f.FrameGroup(ctx, mtrs[i:i+probeGroup])
			if ferr != nil {
				err = ferr
				break
			}
			alloc.AdvanceVDL(g.MaxCPL())
			g.Release()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return d, ms1.Mallocs - ms0.Mallocs
	}
	pass() // warm the framer's pools and scratch
	var allocs []float64
	nsPerRec = medianOf(func() float64 {
		d, a := pass()
		allocs = append(allocs, float64(a)/float64(recs))
		return float64(d) / float64(recs)
	})
	return nsPerRec, median(allocs), err
}

// applyProbe applies the transactions' page records, in LSN order, to
// private copies of the table's pages.
func (in *layerInputs) applyProbe(mtrs []*core.MTR) (float64, error) {
	var recs []*core.Record
	for _, m := range mtrs {
		for i := range m.Records {
			if m.Records[i].PageRecord() {
				recs = append(recs, &m.Records[i])
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	var err error
	ns := medianOf(func() float64 {
		pages := make(map[core.PageID]page.Page, len(in.store))
		for id := range in.store {
			pages[id] = page.New(id)
		}
		t0 := time.Now()
		for _, r := range recs {
			if aerr := pages[r.Page].Apply(r); aerr != nil && err == nil {
				err = fmt.Errorf("page apply: %w", aerr)
			}
		}
		return float64(time.Since(t0)) / float64(len(recs))
	})
	return ns, err
}

type storageResults struct {
	ingestNs, readNs, backupNs, backupBytes float64
	batchBytes                              int // mean wire size of an ingested batch
}

// storageProbes load one segment replica of probePG with the table's
// pages as full-image records, then time Ingest of the transactions'
// batches for that PG, ReadPage of its pages once coalesced, and backups
// of the whole segment to an object store.
func (in *layerInputs) storageProbes(mtrs []*core.MTR) (storageResults, error) {
	var res storageResults
	ctx := context.Background()
	net := netsim.New(netsim.FastLocal())
	store := objstore.New()
	node := storage.NewNode(storage.Config{
		Seg:  core.SegmentID{PG: probePG},
		Node: "bench-seg", Net: net, Disk: disk.FastLocal(), Store: store,
	})
	alloc := core.NewAllocator(core.ZeroLSN, 0)
	f := core.NewFramer(alloc, nil)
	var results []storage.BatchResult
	var vdl core.LSN
	ingest := func(ms []*core.MTR) (time.Duration, int, error) {
		g, err := f.FrameGroup(ctx, ms)
		if err != nil {
			return 0, 0, err
		}
		defer g.Release()
		alloc.AdvanceVDL(g.MaxCPL())
		for i := range g.Batches {
			b := &g.Batches[i]
			if b.PG != probePG {
				continue
			}
			t0 := time.Now()
			_, rs, err := node.Ingest(ctx, []core.BatchView{b.View()}, vdl, vdl, results[:0])
			d := time.Since(t0)
			results = rs
			vdl = g.MaxCPL()
			if err == nil && len(rs) > 0 {
				err = rs[0].Err
			}
			return d, len(b.Wire), err
		}
		vdl = g.MaxCPL()
		return 0, 0, nil
	}

	// The table's pages of this PG, one full-image record each.
	var ids []core.PageID
	load := &core.MTR{}
	for id, p := range in.store {
		if in.pgOf(id) == probePG {
			load.AddInit(probePG, id, p.Payload())
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if _, _, err := ingest([]*core.MTR{load}); err != nil {
		return res, fmt.Errorf("storage load: %w", err)
	}

	batches, wire := 0, 0
	var firstErr error
	res.ingestNs = medianOf(func() float64 {
		var spent time.Duration
		n := 0
		for i := 0; i+probeGroup <= len(mtrs); i += probeGroup {
			d, size, err := ingest(mtrs[i : i+probeGroup])
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if size > 0 {
				spent += d
				n++
				batches++
				wire += size
			}
		}
		return float64(spent) / float64(max(n, 1))
	})
	if firstErr != nil {
		return res, fmt.Errorf("storage ingest: %w", firstErr)
	}
	res.batchBytes = wire / max(batches, 1)
	node.CoalesceOnce()

	readPoint, required := vdl, node.SCL()
	res.readNs = medianOf(func() float64 {
		const reads = 2000
		t0 := time.Now()
		for n := 0; n < reads; n++ {
			if _, err := node.ReadPage(ctx, ids[in.rng.Intn(len(ids))], readPoint, required); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return float64(time.Since(t0)) / reads
	})
	if firstErr != nil {
		return res, fmt.Errorf("storage read: %w", firstErr)
	}

	res.backupBytes = float64(len(node.Snapshot()))
	res.backupNs = medianOf(func() float64 {
		t0 := time.Now()
		for n := 0; n < probeBackup; n++ {
			if node.BackupNow() == 0 && firstErr == nil {
				firstErr = fmt.Errorf("backup stored nothing")
			}
		}
		return float64(time.Since(t0)) / probeBackup
	})
	return res, firstErr
}

// sendProbe times zero-latency network sends of one batch-sized payload.
func sendProbe(size int) (float64, error) {
	net := netsim.New(netsim.FastLocal())
	net.AddNode("bench-writer", 0)
	net.AddNode("bench-seg", 1)
	payload := [][]byte{make([]byte, max(size, 1))}
	ctx := context.Background()
	var err error
	ns := medianOf(func() float64 {
		const sends = 20000
		t0 := time.Now()
		for n := 0; n < sends; n++ {
			if _, serr := net.SendBytes(ctx, "bench-writer", "bench-seg", payload); serr != nil {
				err = serr
			}
		}
		return float64(time.Since(t0)) / sends
	})
	return ns, err
}

// cacheProbes time a hit (Get plus Unpin) on a full cache of the
// workload's size, and an insert that has to evict (Put plus Unpin).
func (in *layerInputs) cacheProbes() (hitNs, evictNs float64) {
	const ops = 20000
	c := bufcache.New(in.cache, func() core.LSN { return core.LSN(1 << 62) })
	pages := make([]page.Page, 2*in.cache)
	for i := range pages {
		pages[i] = page.New(core.PageID(i))
	}
	for i := 0; i < in.cache; i++ {
		c.Put(core.PageID(i), pages[i])
		c.Unpin(core.PageID(i))
	}
	hitNs = medianOf(func() float64 {
		t0 := time.Now()
		for n := 0; n < ops; n++ {
			id := core.PageID(in.rng.Intn(in.cache))
			c.Get(id)
			c.Unpin(id)
		}
		return float64(time.Since(t0)) / ops
	})
	next := in.cache
	evictNs = medianOf(func() float64 {
		t0 := time.Now()
		for n := 0; n < ops; n++ {
			id := core.PageID(next % len(pages))
			next++
			c.Put(id, pages[id])
			c.Unpin(id)
		}
		return float64(time.Since(t0)) / ops
	})
	return hitNs, evictNs
}
