package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// failedLatency stands in for the latency of a failed operation, so that a
// failure counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// loopResult is what an open-loop run, or one connection of it, recorded.
type loopResult struct {
	lat       []time.Duration // per operation, from its reference time; sorted once merged
	late      []time.Duration // per operation, how late the generator ran; sorted once merged
	service   time.Duration   // summed time spent inside the operations
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration // from the start until the last operation ended
}

// openLoop offers rate operations per second for d, split evenly over
// conns connections, each on a fixed schedule: connection c's operation i
// is due at start + (i + u) * conns/rate, where u in [0,1) is drawn from
// jitter(c). The jitter keeps the average rate exact while spreading the
// due times over every phase of the program's periodic background work
// (a strictly periodic schedule would sample the same phase of a 200ms
// backup cycle all run long). Operations are issued in order on their
// connection whether or not earlier ones have finished, so a stall delays
// the requests queued behind it and the delay is charged to them.
//
// Timing rule: an operation is timed from its due time, unless the
// generator was asleep when it fell due; then it is timed from the moment
// the generator woke. The sleep overshoots by up to a timer tick, which
// is the generator's fault, not the program's; that lateness is recorded
// separately in late.
func openLoop(conns int, rate float64, d time.Duration, jitter func(conn int) func() float64, do func(conn, i int) error) loopResult {
	interval := time.Duration(float64(conns) / rate * float64(time.Second))
	perConn := max(int(d/interval), 1)
	start := time.Now()
	res := make([]loopResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			r.lat = make([]time.Duration, 0, perConn)
			r.late = make([]time.Duration, 0, perConn)
			u := jitter(c)
			woke := start
			for i := 0; i < perConn; i++ {
				due := start.Add(time.Duration((float64(i) + u()) * float64(interval)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					woke = time.Now()
				}
				ref, late := due, time.Duration(0)
				if woke.After(due) {
					ref, late = woke, woke.Sub(due)
				}
				t0 := time.Now()
				err := do(c, i)
				t1 := time.Now()
				r.service += t1.Sub(t0)
				r.attempted++
				r.late = append(r.late, late)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					r.lat = append(r.lat, failedLatency)
					continue
				}
				r.lat = append(r.lat, t1.Sub(ref))
			}
		}(c)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, r := range res {
		out.lat = append(out.lat, r.lat...)
		out.late = append(out.late, r.late...)
		out.service += r.service
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	sortDurations(out.lat)
	sortDurations(out.late)
	return out
}

func sortDurations(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.99, 99.9, 99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder, no higher
// than limit, that has at least 10 of n samples beyond it. A percentile
// with fewer samples beyond it is an anecdote, not a measurement. It
// returns 0 when n < 20.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p > limit {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
