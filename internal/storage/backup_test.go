package storage

import (
	"bytes"
	"context"
	"testing"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/objstore"
	"aurora/internal/page"
)

// restoreManifest loads manifest version v of n's backup into a fresh node
// and returns that node's snapshot.
func restoreManifest(t *testing.T, store *objstore.Store, n *Node, v int) []byte {
	t.Helper()
	manifest, err := store.GetVersion(n.BackupKey(), v)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewNode(Config{Seg: n.cfg.Seg, Node: "fresh", Net: netsim.New(netsim.FastLocal()), Disk: disk.FastLocal()})
	if err := fresh.LoadManifest(store, n.BackupKey(), manifest); err != nil {
		t.Fatal(err)
	}
	return fresh.Snapshot()
}

// ingestPages frames count small MTRs over pages 0-3 and delivers them to
// every node, piggybacking the last LSN as VDL and mrpl as the PGMRPL.
func ingestPages(t *testing.T, f *core.Framer, nodes []*Node, count int, mrpl core.LSN) {
	t.Helper()
	for i := 0; i < count; i++ {
		m := &core.MTR{Txn: uint64(i)}
		m.AddDelta(0, core.PageID(i%4), uint32(8*i%256), []byte{byte(i), byte(i + 7)})
		batches, _, err := f.Frame(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range batches {
			b := &batches[bi]
			vdl := b.Records[len(b.Records)-1].LSN
			for _, node := range nodes {
				if _, err := receiveBatch(node, context.Background(), b, vdl, mrpl); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestManifestRestoresEveryBaseChange drives a node through every path that
// changes a base image — coalesce, truncation, in-place corruption, scrub
// repair and a snapshot load — backing up after each. Restoring any
// manifest, right away or after later rounds have restaged its pages, must
// reproduce the node's full snapshot at backup time byte for byte.
func TestManifestRestoresEveryBaseChange(t *testing.T) {
	store := objstore.New()
	_, nodes := testPG(t, store)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	ingest := func(count int, mrpl core.LSN) {
		t.Helper()
		ingestPages(t, f, nodes, count, mrpl)
	}
	coalesceAll := func() {
		t.Helper()
		for _, node := range nodes {
			if node.CoalesceOnce() == 0 {
				t.Fatalf("%s: nothing coalesced", node.NodeID())
			}
		}
	}

	type backup struct {
		step    string
		version int
		snap    []byte
	}
	var backups []backup
	backupAndCheck := func(step string) {
		t.Helper()
		want := n.Snapshot()
		v := n.BackupNow()
		if v == 0 {
			t.Fatalf("%s: backup stored nothing", step)
		}
		if got := restoreManifest(t, store, n, v); !bytes.Equal(got, want) {
			t.Fatalf("%s: restored snapshot differs from the source's (%d vs %d bytes)", step, len(got), len(want))
		}
		backups = append(backups, backup{step, v, want})
	}

	ingest(12, 0)
	backupAndCheck("ingest")
	ingest(8, 14)
	coalesceAll()
	backupAndCheck("coalesce")
	ingest(8, 24)
	coalesceAll()
	backupAndCheck("second coalesce")
	ingest(6, 24)
	if err := n.Truncate(core.TruncationRange{Epoch: 1, From: 32, To: 100}); err != nil {
		t.Fatal(err)
	}
	backupAndCheck("truncate")
	if !n.CorruptPage(1) {
		t.Fatal("no base image to corrupt")
	}
	backupAndCheck("corrupt")
	if bad := n.ScrubOnce(); bad != 1 {
		t.Fatalf("scrub found %d corrupt pages, want 1", bad)
	}
	backupAndCheck("scrub repair")
	if err := n.LoadSnapshot(nodes[1].Snapshot()); err != nil {
		t.Fatal(err)
	}
	backupAndCheck("load snapshot")

	// Later rounds restaged the same page keys; every manifest still names
	// the exact image versions it was written against.
	for _, b := range backups {
		if got := restoreManifest(t, store, n, b.version); !bytes.Equal(got, b.snap) {
			t.Fatalf("manifest %d (%s) no longer restores its snapshot", b.version, b.step)
		}
	}
}

// TestIdleBackupStagesOnlyManifest checks that backup cost follows change:
// the first round stages every base image, a second round on an idle node
// writes nothing but its manifest.
func TestIdleBackupStagesOnlyManifest(t *testing.T) {
	store := objstore.New()
	nodes := scrubPG(t)
	n := nodes[0]
	n.cfg.Store = store

	if v := n.BackupNow(); v != 1 {
		t.Fatalf("first manifest version %d, want 1", v)
	}
	puts, _, _ := store.Stats()
	if puts != 2 {
		t.Fatalf("first backup made %d puts, want one page image and one manifest", puts)
	}
	if got := store.Versions(pageKey(n.BackupKey(), 1)); got != 1 {
		t.Fatalf("page 1 staged %d times, want 1", got)
	}

	_, _, before := store.Stats()
	v := n.BackupNow()
	puts2, _, after := store.Stats()
	manifest, err := store.GetVersion(n.BackupKey(), v)
	if err != nil {
		t.Fatal(err)
	}
	if puts2-puts != 1 || after-before != uint64(len(manifest)) {
		t.Fatalf("idle backup: %d puts, %d bytes; want 1 put of the %d-byte manifest",
			puts2-puts, after-before, len(manifest))
	}
	if len(manifest) >= page.Size {
		t.Fatalf("manifest is %d bytes, more than the page image it references", len(manifest))
	}
}

// TestBackupDiskTraffic checks the disk model: a segment whose disk has
// failed stages nothing, and backup and restore charge the disk for every
// page image they move as well as for the manifest.
func TestBackupDiskTraffic(t *testing.T) {
	store := objstore.New()
	nodes := scrubPG(t)
	n := nodes[0]
	n.cfg.Store = store

	n.Disk().Fail(true)
	if v := n.BackupNow(); v != 0 {
		t.Fatalf("backup on a failed disk stored manifest version %d", v)
	}
	if puts, _, _ := store.Stats(); puts != 0 {
		t.Fatalf("backup on a failed disk made %d puts, want 0", puts)
	}
	n.Disk().Fail(false)

	read := n.Disk().Stats().BytesRead
	v := n.BackupNow()
	manifest, err := store.GetVersion(n.BackupKey(), v)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(manifest) + page.Size) // one staged image
	if got := n.Disk().Stats().BytesRead - read; got != want {
		t.Fatalf("backup read %d disk bytes, want %d", got, want)
	}

	written := n.Disk().Stats().BytesWritten
	if err := n.RestoreFromBackup(); err != nil {
		t.Fatal(err)
	}
	if got := n.Disk().Stats().BytesWritten - written; got != want {
		t.Fatalf("restore wrote %d disk bytes, want %d", got, want)
	}
}

// TestBackupConcurrentWithBaseChanges runs backups back to back while the
// node's base images keep changing. Once the node is quiet, one more backup
// must restore to its exact snapshot.
func TestBackupConcurrentWithBaseChanges(t *testing.T) {
	store := objstore.New()
	_, nodes := testPG(t, store)
	n := nodes[0]
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	ingestPages(t, f, nodes, 8, 0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				n.BackupNow()
			}
		}
	}()
	for round := 1; round <= 20; round++ {
		ingestPages(t, f, nodes, 8, core.LSN(8*round))
		n.CoalesceOnce()
		n.CorruptPage(core.PageID(round % 4))
		n.ScrubOnce()
	}
	close(stop)
	<-done

	want := n.Snapshot()
	v := n.BackupNow()
	if got := restoreManifest(t, store, n, v); !bytes.Equal(got, want) {
		t.Fatal("backup taken after concurrent changes does not restore the node's snapshot")
	}
}
