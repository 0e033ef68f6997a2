package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"aurora"
)

const (
	tableRows  = 20000 // rows loaded into the table before every run
	valueSize  = 100   // bytes per value
	loadBatch  = 250   // rows per load transaction
	numConns   = 2     // connections driving the open loop
	smallCache = 256   // CachePages for the larger-than-cache workloads
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	// rate is the offered load in operations per second, summed over all
	// connections. An operation is one transaction or one Get.
	rate float64
	// cachePages overrides Options.CachePages; 0 keeps the default.
	cachePages int
	// warmOps is how many operations run closed-loop after the load so
	// the cache reaches its steady state before anything is timed.
	warmOps int
	// op runs operation i of connection conn.
	op func(t *table, s *session, i int) error
}

// workloads are documented, with the reasons for each, in the usage text.
var workloads = []*workload{
	{
		name:    "write-commit",
		rate:    300,
		warmOps: 400,
		op:      (*table).writeTxn,
	},
	{
		name:       "read-cold",
		rate:       2000,
		cachePages: smallCache,
		warmOps:    4000,
		op:         (*table).readOne,
	},
	{
		name:       "oltp-mixed",
		rate:       300,
		cachePages: smallCache,
		warmOps:    400,
		op:         (*table).mixedTxn,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// table is the benchmark's model of the one table every workload uses:
// the seed-derived loaded values plus, per key, the newest version a
// commit acknowledged and the newest version any transaction attempted.
// Writes are partitioned by key so that connection c only writes keys
// with index%numConns == c: no two transactions ever contend for a row
// lock, so a failed operation is the program's fault, not the mix's.
type table struct {
	seed  int64
	keys  [][]byte
	acked []atomic.Uint32 // newest acknowledged version per key (0 = loaded)
	tried []atomic.Uint32 // newest attempted version per key

	mu       sync.Mutex
	wrong    int
	firstBad string
}

// session is one connection's state: its cluster handle and its private
// random stream, derived from the seed and the connection number.
type session struct {
	c    *aurora.Cluster
	conn int
	rng  *rand.Rand
	pick []int // scratch for key choices
}

func newTable(seed int64) *table {
	t := &table{
		seed:  seed,
		keys:  make([][]byte, tableRows),
		acked: make([]atomic.Uint32, tableRows),
		tried: make([]atomic.Uint32, tableRows),
	}
	for i := range t.keys {
		t.keys[i] = []byte(fmt.Sprintf("row%06d", i))
	}
	return t
}

func (t *table) session(c *aurora.Cluster, conn int, stream int64) *session {
	return &session{c: c, conn: conn, rng: rand.New(rand.NewSource(t.seed*1000003 + stream*101 + int64(conn)))}
}

// value is the seed-derived content of key i at version ver: the key
// index and version in the first 8 bytes, then a pseudo-random fill.
func (t *table) value(i int, ver uint32) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint32(v[0:], uint32(i))
	binary.LittleEndian.PutUint32(v[4:], ver)
	x := uint64(t.seed)*0x9E3779B97F4A7C15 ^ uint64(i)<<32 ^ uint64(ver)
	for off := 8; off < valueSize; off += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(v[off:], w[:])
	}
	return v
}

// errWrongValue marks an operation that returned data the model rules out.
var errWrongValue = errors.New("wrong value")

// checkRead validates a value read for key i. lo is the key's acknowledged
// version before the read started; the value read must be a well-formed
// version of key i, no older than lo and no newer than any version
// attempted by the time the read returned.
func (t *table) checkRead(i int, lo uint32, got []byte, found bool) error {
	hi := t.tried[i].Load()
	if !found {
		return t.mismatch(i, fmt.Sprintf("key %s missing (want version %d..%d)", t.keys[i], lo, hi))
	}
	if len(got) != valueSize {
		return t.mismatch(i, fmt.Sprintf("key %s: %d-byte value", t.keys[i], len(got)))
	}
	ver := binary.LittleEndian.Uint32(got[4:])
	if int(binary.LittleEndian.Uint32(got)) != i || ver < lo || ver > hi || !bytes.Equal(got, t.value(i, ver)) {
		return t.mismatch(i, fmt.Sprintf("key %s: read version %d, want %d..%d", t.keys[i], ver, lo, hi))
	}
	return nil
}

func (t *table) mismatch(i int, msg string) error {
	t.mu.Lock()
	t.wrong++
	if t.firstBad == "" {
		t.firstBad = msg
	}
	t.mu.Unlock()
	return fmt.Errorf("%w: %s", errWrongValue, msg)
}

// wrongValues returns the number of mismatches seen and the first one.
func (t *table) wrongValues() (int, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wrong, t.firstBad
}

// load inserts every row at version 0 in transactions of loadBatch rows.
func (t *table) load(c *aurora.Cluster) error {
	for lo := 0; lo < tableRows; lo += loadBatch {
		tx := c.Begin()
		for i := lo; i < lo+loadBatch && i < tableRows; i++ {
			if err := tx.Put(t.keys[i], t.value(i, 0)); err != nil {
				tx.Abort()
				return fmt.Errorf("load row %d: %w", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit at row %d: %w", lo, err)
		}
	}
	return nil
}

// anyKey picks a key uniformly from the whole table.
func (s *session) anyKey() int { return s.rng.Intn(tableRows) }

// ownKeys picks n distinct keys from the connection's write partition,
// sorted so that a transaction always takes its row locks in key order.
func (s *session) ownKeys(n int) []int {
	s.pick = s.pick[:0]
	for len(s.pick) < n {
		k := s.conn + numConns*s.rng.Intn(tableRows/numConns)
		dup := false
		for _, p := range s.pick {
			dup = dup || p == k
		}
		if !dup {
			s.pick = append(s.pick, k)
		}
	}
	sort.Ints(s.pick)
	return s.pick
}

// readOne is the read-cold operation: one autocommit point Get.
func (t *table) readOne(s *session, _ int) error {
	i := s.anyKey()
	lo := t.acked[i].Load()
	v, ok, err := s.c.Get(t.keys[i])
	if err != nil {
		return err
	}
	return t.checkRead(i, lo, v, ok)
}

// writeTxn is the write-commit operation: Put 4 keys, commit.
func (t *table) writeTxn(s *session, _ int) error {
	return t.txn(s, 0, 4)
}

// mixedTxn is the oltp-mixed operation: 4 point reads, 2 updates, commit.
func (t *table) mixedTxn(s *session, _ int) error {
	return t.txn(s, 4, 2)
}

func (t *table) txn(s *session, reads, writes int) error {
	tx := s.c.Begin()
	for r := 0; r < reads; r++ {
		i := s.anyKey()
		lo := t.acked[i].Load()
		v, ok, err := tx.Get(t.keys[i])
		if err == nil {
			err = t.checkRead(i, lo, v, ok)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	keys := s.ownKeys(writes)
	var vers [8]uint32
	for n, i := range keys {
		vers[n] = t.tried[i].Load() + 1
		t.tried[i].Store(vers[n])
		if err := tx.Put(t.keys[i], t.value(i, vers[n])); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for n, i := range keys {
		t.acked[i].Store(vers[n])
	}
	return nil
}

// verify reads every key a transaction wrote back after the run and
// checks it holds the newest acknowledged version (or a newer attempted
// one whose commit reported an error). It returns the keys checked, how
// many of them failed, and the first failure.
func (t *table) verify(c *aurora.Cluster) (checked, bad int, first error) {
	for i := range t.keys {
		if t.tried[i].Load() == 0 {
			continue
		}
		checked++
		v, ok, err := c.Get(t.keys[i])
		if err == nil {
			err = t.checkRead(i, t.acked[i].Load(), v, ok)
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("key %s: %w", t.keys[i], err)
			}
		}
	}
	return checked, bad, first
}
