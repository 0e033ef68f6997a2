package storage

import (
	"context"
	"fmt"

	"aurora/internal/core"
	"aurora/internal/page"
)

// ScrubOnce validates the CRC of every materialized base page (Figure 4
// step 8) and repairs corrupt pages by fetching a healthy copy from a peer
// replica. It returns the number of pages found corrupt.
func (n *Node) ScrubOnce() int {
	if n.down.Load() {
		return 0
	}
	n.mu.Lock()
	var bad []core.PageID
	for id, ps := range n.pages {
		if ps.base == nil {
			continue
		}
		if err := ps.base.VerifyChecksum(); err != nil {
			bad = append(bad, id)
		} else {
			n.scrubOK.Add(1)
		}
	}
	peers := append([]*Node(nil), n.peers...)
	n.mu.Unlock()

	ctx := n.runContext()
	for _, id := range bad {
		if n.repairPageFromPeers(ctx, id, peers) {
			n.scrubFix.Add(1)
		}
	}
	return len(bad)
}

// repairPageFromPeers replaces a corrupt base page with a verified copy
// from the first peer that has one, merging the peer's delta chain so no
// record is lost.
func (n *Node) repairPageFromPeers(ctx context.Context, id core.PageID, peers []*Node) bool {
	for _, peer := range peers {
		if peer.down.Load() || ctx.Err() != nil {
			continue
		}
		if err := n.cfg.Net.Send(ctx, n.cfg.Node, peer.cfg.Node, gossipRequestSize); err != nil {
			continue
		}
		base, chain, ok := peer.pageCopy(id)
		if !ok {
			continue
		}
		size := len(base)
		for _, r := range chain {
			size += r.EncodedSize()
		}
		if err := n.cfg.Net.Send(ctx, peer.cfg.Node, n.cfg.Node, size); err != nil {
			continue
		}
		if base != nil {
			if err := base.VerifyChecksum(); err != nil {
				continue // the peer's copy is corrupt too; try the next one
			}
		}
		if err := n.ssd.Write(size); err != nil {
			return false
		}
		n.mu.Lock()
		ps := n.pages[id]
		if ps == nil {
			ps = &pageState{}
			n.pages[id] = ps
		}
		ps.base = base
		ps.staged = 0
		// Rebuild the chain: keep records strictly above the new base and
		// merge in any the peer had that we lack.
		merged := map[core.LSN]*core.Record{}
		for _, r := range ps.chain {
			if base == nil || r.LSN > base.LSN() {
				merged[r.LSN] = r
			}
		}
		for _, r := range chain {
			if base == nil || r.LSN > base.LSN() {
				if _, have := merged[r.LSN]; !have {
					cl := r.Clone()
					merged[cl.LSN] = &cl
					n.log[cl.LSN] = &cl
					n.logIdxInsertLocked(cl.LSN)
				}
			}
		}
		ps.chain = ps.chain[:0]
		for _, r := range merged {
			ps.chain = append(ps.chain, r)
		}
		sortChain(ps.chain)
		n.mu.Unlock()
		return true
	}
	return false
}

// pageCopy returns a clone of the node's base image and chain for a page.
func (n *Node) pageCopy(id core.PageID) (page.Page, []*core.Record, bool) {
	if n.down.Load() {
		return nil, nil, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil {
		return nil, nil, false
	}
	var base page.Page
	if ps.base != nil {
		base = ps.base.Clone()
	}
	chain := make([]*core.Record, len(ps.chain))
	copy(chain, ps.chain)
	return base, chain, true
}

func sortChain(chain []*core.Record) {
	for i := 1; i < len(chain); i++ {
		for j := i; j > 0 && chain[j-1].LSN > chain[j].LSN; j-- {
			chain[j-1], chain[j] = chain[j], chain[j-1]
		}
	}
}

// CorruptPage flips bytes in the materialized base image of a page — the
// fault the scrubber exists to catch. It reports whether a base image was
// present to corrupt.
func (n *Node) CorruptPage(id core.PageID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.pages[id]
	if ps == nil || ps.base == nil {
		return false
	}
	payload := ps.base.Payload()
	payload[0] ^= 0xFF
	payload[len(payload)-1] ^= 0xFF
	ps.staged = 0
	return true
}

// RepairFrom re-replicates the entire segment from a healthy peer — the
// repair path behind both permanent disk loss and heat management's
// segment migration (§2.3). The full snapshot crosses the network and is
// written to local disk, which is what makes small segments fast to repair
// and hence MTTR short (§2.2).
func (n *Node) RepairFrom(peer *Node) error {
	if peer.down.Load() {
		return fmt.Errorf("repair source %s: %w", peer.cfg.Node, ErrNodeDown)
	}
	ctx := n.runContext()
	if err := n.cfg.Net.Send(ctx, n.cfg.Node, peer.cfg.Node, gossipRequestSize); err != nil {
		return err
	}
	snap := peer.Snapshot()
	if err := n.cfg.Net.Send(ctx, peer.cfg.Node, n.cfg.Node, len(snap)); err != nil {
		return err
	}
	if err := n.ssd.Write(len(snap)); err != nil {
		return err
	}
	return n.LoadSnapshot(snap)
}
