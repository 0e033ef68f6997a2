package main

import (
	"testing"
	"time"
)

func noJitter(int) func() float64 { return func() float64 { return 0 } }

// A stall must be charged to the operations queued behind it: they are
// timed from their due time, not from when the connection got to them.
func TestStallChargesQueuedOperations(t *testing.T) {
	const stall = 50 * time.Millisecond
	res := openLoop(1, 1000, 100*time.Millisecond, noJitter, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.attempted != 100 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 100 and 0", res.attempted, res.failed)
	}
	// Operations 1..~49 fall due during the stall; each waits for it to
	// end, so at least 30 of them carry 10ms or more. Timed from when they
	// started, they would all read close to zero.
	queued := 0
	for _, l := range res.lat {
		if l >= 10*time.Millisecond {
			queued++
		}
	}
	if queued < 30 {
		t.Fatalf("%d operations carry >= 10ms, want >= 30 (latencies %v)", queued, res.lat)
	}
	if slowest := res.lat[len(res.lat)-1]; slowest < stall-5*time.Millisecond {
		t.Fatalf("slowest operation %v, want about %v", slowest, stall)
	}
}

// An operation the generator slept for is timed from when it woke, so the
// sleep's overshoot is not charged to the program: instant operations read
// close to zero however late the timer fired.
func TestGeneratorLatenessNotCharged(t *testing.T) {
	res := openLoop(1, 200, 100*time.Millisecond, noJitter, func(int, int) error { return nil })
	if res.attempted != 20 || len(res.late) != 20 {
		t.Fatalf("attempted %d with %d lateness samples, want 20 and 20", res.attempted, len(res.late))
	}
	if p50 := quantile(res.lat, 0.5); p50 > 500*time.Microsecond {
		t.Fatalf("instant operations read p50 %v, want well under 0.5ms", p50)
	}
}

func TestFailedOperationsMissEveryLimit(t *testing.T) {
	res := openLoop(2, 2000, 20*time.Millisecond, noJitter, func(_, i int) error {
		if i == 3 {
			return errWrongValue
		}
		return nil
	})
	if res.failed != 2 || res.lat[len(res.lat)-1] != failedLatency {
		t.Fatalf("failed %d, slowest %v; want 2 failures counted at failedLatency", res.failed, res.lat[len(res.lat)-1])
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{1000, 99, 99},
		{999, 99, 98},
		{10000, 99, 99},
		{10000, 100, 99.9},
		{100000, 100, 99.99},
		{200, 100, 95},
		{20, 100, 50},
		{19, 100, 0},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %d, want 500", got)
	}
}
