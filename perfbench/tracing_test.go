package main

import (
	"math"
	"testing"
	"time"

	"aurora/internal/trace"
)

func span(name string, start, end time.Duration, children ...*trace.SpanInfo) *trace.SpanInfo {
	return &trace.SpanInfo{Name: name, Start: start, End: end, Children: children}
}

// Self time subtracts what the children cover, counting time two
// children overlap (parallel replica flights) once, clipping a child that
// outlives its parent, and ignoring a child that never ended.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	root := span("batch.ship", 0, 100,
		span("replica.flight", 10, 50),
		span("replica.flight", 30, 70),
		span("replica.flight", 40, 45),
		span("quorum.wait", 80, 120),
		span("replica.flight", 90, 0),
	)
	// Covered: [10,70) and [80,100) = 80, so self = 20.
	if got := selfTime(root); got != 20 {
		t.Fatalf("self time %v, want 20", got)
	}
	if got := selfTime(span("leaf", 5, 25)); got != 20 {
		t.Fatalf("leaf self time %v, want its duration 20", got)
	}
}

func TestAttributeWithoutTracesChargesRoot(t *testing.T) {
	r := attribute(nil, 10*time.Millisecond)
	if got := r.cpShare(benchRoot); got != 1 {
		t.Fatalf("with no traces the benchmark root holds the whole path, got share %v", got)
	}
	if got := r.meanSelfUs("commit.apply"); got != 0 {
		t.Fatalf("unseen span self time %v, want 0", got)
	}
}

// The critical-path shares of the program's spans plus the benchmark's
// root share account for the whole service time exactly once.
func TestAttributeSharesSumToOne(t *testing.T) {
	col := trace.NewCollector(16)
	col.SetSampleEvery(1)
	for i := 0; i < 2; i++ {
		root := col.Start("commit")
		wait := root.Child("quorum.wait")
		time.Sleep(time.Millisecond)
		wait.End()
		root.End()
	}
	traces := col.Traces()
	var traced time.Duration
	for _, tr := range traces {
		traced += tr.Duration()
	}
	rootTime := 3 * traced // the operations also spent time outside any trace
	r := attribute(traces, rootTime)
	if r.traces != 2 {
		t.Fatalf("attributed %d traces, want 2", r.traces)
	}
	sum := 0.0
	for name := range r.spans {
		sum += r.cpShare(name)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("critical-path shares sum to %v, want 1", sum)
	}
	if got, want := r.cpShare(benchRoot), 2.0/3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("benchmark root share %v, want %v", got, want)
	}
	if got := r.meanSelfUs("quorum.wait"); got < 1000 {
		t.Fatalf("quorum.wait mean self time %vus, want at least the 1ms it slept", got)
	}
}
