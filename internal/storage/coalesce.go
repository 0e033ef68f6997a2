package storage

import (
	"aurora/internal/core"
	"aurora/internal/page"
)

// CoalesceOnce advances materialized pages and garbage collects log
// records (Figure 4 steps 5 and 7). A page's base image may only advance to
// the PGMRPL — the low-water mark below which the writer guarantees no
// read-point will ever be requested (§4.2.3) — and never past the segment's
// own completeness point. The entire log prefix at or below that safe point
// (page records folded into bases, plus transaction metadata records) is
// then garbage collected as one unit, so the retained log always starts
// exactly where the GC boundary (gcTail) ends. CPL positions are retained:
// they are tiny and recovery needs them.
//
// Unlike checkpointing, which is governed by the length of the entire redo
// log chain, the work here is governed per page by the length of that
// page's chain — the key asymmetry called out in §3.2.
//
// It returns the number of pages whose base image advanced.
func (n *Node) CoalesceOnce() int {
	if n.down.Load() {
		return 0
	}
	if n.cfg.Role == core.RoleLog {
		return n.logGCOnce()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.wiped {
		return 0
	}
	safe := n.pgmrpl
	if scl := n.gaps.SCL(); scl < safe {
		safe = scl
	}
	if safe <= n.gcTail {
		return 0
	}

	// Phase 1: materialize every page whose chain intersects the prefix.
	type pending struct {
		ps      *pageState
		newBase page.Page
		cut     int
	}
	var work []pending
	for id, ps := range n.pages {
		if len(ps.chain) == 0 || ps.chain[0].LSN > safe {
			continue
		}
		cut := 0
		for cut < len(ps.chain) && ps.chain[cut].LSN <= safe {
			cut++
		}
		newBase, err := page.Materialize(id, ps.base, ps.chain[:cut], safe)
		if err != nil {
			// A malformed record would have been caught at generation; a
			// failure here means local corruption. Abort the whole round so
			// the GC prefix stays consistent; the scrubber will repair.
			return 0
		}
		newBase.UpdateChecksum()
		work = append(work, pending{ps: ps, newBase: newBase, cut: cut})
	}

	// Phase 2: install bases and GC the complete prefix atomically.
	for _, w := range work {
		w.ps.base = w.newBase
		w.ps.staged = 0
		w.ps.chain = append([]*core.Record(nil), w.ps.chain[w.cut:]...)
	}
	gced := uint64(0)
	for _, lsn := range n.logIdx {
		if lsn > safe {
			break
		}
		delete(n.log, lsn)
		if lsn > n.gcTail {
			n.gcTail = lsn
		}
		gced++
	}
	n.logIdxTrimLocked(safe)
	n.gced.Add(gced)
	n.coalesces.Add(uint64(len(work)))
	for range work {
		if err := n.ssd.Write(page.Size); err != nil {
			break
		}
	}
	return len(work)
}

// logGCOnce is the log tier's frugal stand-in for coalescing: no page is
// ever materialized — a log replica's job ends at durable, complete,
// pulled. The retained log prefix is GC'd only once this replica and
// every peer are complete through it (page replicas pull the feed from
// here, so dropping records a peer still needs would starve the feed)
// and never above the PGMRPL. A wiped or freshly-repairing peer holds
// the floor at its SCL, which safely stalls GC until it catches up.
func (n *Node) logGCOnce() int {
	// Peer SCLs are read without holding our own lock (same discipline as
	// the gossip pull) to keep lock ordering single-level.
	n.mu.Lock()
	peers := append([]*Node(nil), n.peers...)
	n.mu.Unlock()
	floor := n.SCL()
	for _, p := range peers {
		if s := p.SCL(); s < floor {
			floor = s
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.wiped {
		return 0
	}
	if n.pgmrpl < floor {
		floor = n.pgmrpl
	}
	if floor <= n.gcTail {
		return 0
	}
	gced := uint64(0)
	for _, lsn := range n.logIdx {
		if lsn > floor {
			break
		}
		delete(n.log, lsn)
		if lsn > n.gcTail {
			n.gcTail = lsn
		}
		gced++
	}
	if gced == 0 {
		return 0
	}
	n.logIdxTrimLocked(floor)
	// Trim delta chains below the floor: the history lives on in the page
	// tier's materialized bases, not here. The chain bookkeeping exists
	// only so StripePages can report page tails to the rebalancer.
	for id, ps := range n.pages {
		cut := 0
		for cut < len(ps.chain) && ps.chain[cut].LSN <= floor {
			cut++
		}
		if cut > 0 {
			ps.chain = append([]*core.Record(nil), ps.chain[cut:]...)
		}
		if ps.base == nil && len(ps.chain) == 0 {
			delete(n.pages, id)
		}
	}
	n.gced.Add(gced)
	// Persist the advanced GC boundary.
	n.ssd.Write(64)
	return 0
}

// GCTail returns the highest log LSN garbage collected so far — the point
// below which the segment's history lives only in materialized pages.
func (n *Node) GCTail() core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gcTail
}

// ChainLength returns the delta-chain length of a page (0 if unknown). The
// harness uses it to demonstrate that background materialization bounds
// read-time apply work.
func (n *Node) ChainLength(id core.PageID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil {
		return 0
	}
	return len(ps.chain)
}

// BasePageLSN returns the LSN of the materialized base image of a page
// (ZeroLSN if the page has never been coalesced).
func (n *Node) BasePageLSN(id core.PageID) core.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil || ps.base == nil {
		return core.ZeroLSN
	}
	return ps.base.LSN()
}
