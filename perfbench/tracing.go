package main

import (
	"sort"
	"sync"
	"time"

	"aurora/internal/trace"
)

// Spans the traced run reports, by the path they lie on. net.req is also
// the request hop of a page read (under read.attempt); on read-cold that
// is the only place it appears.
var (
	writeSpans = []string{
		"commit.apply", "commit.queue", "group.frame", "group.ship", "vdl.wait",
		"batch.ship", "replica.flight", "quorum.wait",
		"net.req", "net.ack",
		"storage.ingest", "storage.apply",
		"disk.sync",
	}
	readSpans = []string{"read.page", "read.attempt", "storage.read", "net.resp"}
)

// benchRoot names the benchmark's own root span: one per operation, around
// the aurora calls that make it up. Its critical-path share is the time
// spent in those calls outside any span the program traced.
const benchRoot = "bench.op"

// traceTap collects every trace the program's collector finishes while
// sampling is on. The collector keeps only a bounded ring of recent
// traces, so the tap polls it often and keeps each new trace once. Only
// the polling goroutine touches seen and traces until finish has waited
// for it to exit.
type traceTap struct {
	col  *trace.Collector
	stop chan struct{}
	done sync.WaitGroup

	seen   map[uint64]bool
	traces []*trace.Trace
}

// tapInterval is how often the tap drains the ring; the ring holds 256
// traces, and the busiest workload finishes about 1500 traces a second.
const tapInterval = 20 * time.Millisecond

func startTap(col *trace.Collector) *traceTap {
	t := &traceTap{col: col, stop: make(chan struct{}), seen: make(map[uint64]bool)}
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(tapInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.drain()
			case <-t.stop:
				return
			}
		}
	}()
	return t
}

func (t *traceTap) drain() {
	for _, tr := range t.col.Traces() {
		if !t.seen[tr.ID()] {
			t.seen[tr.ID()] = true
			t.traces = append(t.traces, tr)
		}
	}
}

// finish stops polling and returns every trace seen. The caller has
// already turned sampling off; the last drain runs after a grace period
// so that replica flights landing after their commit resolved have ended.
func (t *traceTap) finish(grace time.Duration) []*trace.Trace {
	close(t.stop)
	t.done.Wait()
	time.Sleep(grace)
	t.drain()
	return t.traces
}

// spanStat accumulates one span name over many traces.
type spanStat struct {
	count int
	self  time.Duration // summed self time
	path  time.Duration // summed critical-path time
}

// spanReport is the per-span attribution of a traced run.
type spanReport struct {
	spans  map[string]*spanStat
	traces int
	// rootTime is the summed duration of the benchmark's root spans, the
	// denominator of every critical-path share.
	rootTime time.Duration
}

func (r *spanReport) stat(name string) *spanStat {
	s := r.spans[name]
	if s == nil {
		s = &spanStat{}
		r.spans[name] = s
	}
	return s
}

// meanSelfUs returns a span's mean self time in microseconds (0 if the
// span never appeared).
func (r *spanReport) meanSelfUs(name string) float64 {
	s := r.spans[name]
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / float64(time.Microsecond)
}

// cpShare returns the share of the root spans' time that the critical
// path spent in the named span.
func (r *spanReport) cpShare(name string) float64 {
	s := r.spans[name]
	if s == nil || r.rootTime <= 0 {
		return 0
	}
	return float64(s.path) / float64(r.rootTime)
}

// attribute builds the span report. Every trace the program started lies
// inside exactly one benchmark root span (a commit inside its
// transaction, a page read inside its Get), and the traces of one root
// never overlap, since a connection runs its calls one at a time. The
// critical path of a root is therefore its traces' critical paths plus
// the root's own time between them, and rootTime, the summed service time
// of all operations of the traced window, is the total they share.
func attribute(traces []*trace.Trace, rootTime time.Duration) *spanReport {
	r := &spanReport{spans: make(map[string]*spanStat), rootTime: rootTime}
	var traced time.Duration
	for _, tr := range traces {
		root := tr.Snapshot()
		if root.End == 0 {
			continue
		}
		r.traces++
		root.Walk(func(si *trace.SpanInfo) {
			if si.End == 0 {
				return
			}
			s := r.stat(si.Name)
			s.count++
			s.self += selfTime(si)
		})
		for _, seg := range trace.CriticalPath(root) {
			r.stat(seg.Name).path += seg.Dur
			traced += seg.Dur
		}
	}
	if rest := rootTime - traced; rest > 0 {
		r.stat(benchRoot).path += rest
	}
	return r
}

// selfTime is a span's duration minus the part of it that its ended
// children cover. Overlapping children (the parallel replica flights of
// one batch) are merged first, so time two children share counts once.
func selfTime(si *trace.SpanInfo) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(si.Children))
	for _, c := range si.Children {
		if c.End == 0 {
			continue
		}
		lo, hi := max(c.Start, si.Start), min(c.End, si.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return si.Duration() - covered
}
