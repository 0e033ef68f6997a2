package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aurora"
)

// roundSeconds is the length of one measured round. A run is split into
// rounds, each on a freshly created cluster, because continuous backup
// grows the heap by 100-150 MB a second: one cluster cannot be measured
// for long without running the host out of memory. Each end-to-end metric
// is the median over the rounds. Every run starts with one unmeasured
// round of the same length: the first cluster of a process pays for
// mapping the heap from the operating system, which later rounds reuse.
const roundSeconds = 4

// traceGrace lets replica flights that land after their commit resolved
// end before the traced round's spans are read.
const traceGrace = 200 * time.Millisecond

// setUp creates the workload's cluster, loads the table and warms the
// cache.
func setUp(w *workload, seed int64) (*aurora.Cluster, *table, error) {
	c, err := aurora.NewCluster(aurora.Options{CachePages: w.cachePages})
	if err != nil {
		return nil, nil, fmt.Errorf("new cluster: %w", err)
	}
	t := newTable(seed)
	if err := t.load(c); err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := warm(c, t, w); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, t, nil
}

// warm runs the workload's operation closed-loop on every connection
// until warmOps operations have run, so the cache reaches steady state.
func warm(c *aurora.Cluster, t *table, w *workload) error {
	errs := make(chan error, numConns)
	for conn := 0; conn < numConns; conn++ {
		go func(conn int) {
			s := t.session(c, conn, 0)
			for i := 0; i < w.warmOps/numConns; i++ {
				if err := w.op(t, s, i); err != nil {
					errs <- fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			errs <- nil
		}(conn)
	}
	var first error
	for conn := 0; conn < numConns; conn++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// round is one set-up plus one measured open-loop window on its cluster,
// with the cluster counters, CPU and host steal around the window and the
// correctness check after it.
type round struct {
	setup         time.Duration
	loop          loopResult
	cpu           time.Duration
	steal         float64
	before, after aurora.Stats
	heapStartMB   float64
	heapMB        float64 // live heap after the window
	checked, bad  int     // keys read back after the window, and wrong ones
	verifyErr     error
	spans         *spanReport // traced rounds only
}

// runRound sets up a cluster and measures one window of d on it. stream
// selects the round's operation choices; the table's values depend only on
// the seed. With traced, every commit and page read is traced.
func runRound(w *workload, seed int64, stream int64, d time.Duration, traced bool) (*round, error) {
	t0 := time.Now()
	c, t, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	r := &round{setup: time.Since(t0)}

	sessions := make([]*session, numConns)
	for conn := range sessions {
		sessions[conn] = t.session(c, conn, stream)
	}
	jitter := func(conn int) func() float64 {
		return rand.New(rand.NewSource(seed*7919 + stream*31 + int64(conn))).Float64
	}
	var tap *traceTap
	if traced {
		tap = startTap(c.Tracer())
		c.Tracer().SetSampleEvery(1)
	}
	r.heapStartMB = heapInUseMB() // also starts every window on a collected heap
	r.before = c.Stats()
	ticks0, cpu0 := readCPUTicks(), processCPU()
	r.loop = openLoop(numConns, w.rate, d, jitter, func(conn, i int) error {
		return w.op(t, sessions[conn], i)
	})
	r.cpu = processCPU() - cpu0
	r.steal = stealShare(ticks0, readCPUTicks())
	r.after = c.Stats()
	if traced {
		c.Tracer().SetSampleEvery(0)
		r.spans = attribute(tap.finish(traceGrace), r.loop.service)
	}
	r.heapMB = heapInUseMB()
	r.checked, r.bad, r.verifyErr = t.verify(c)
	if wrong, first := t.wrongValues(); wrong > 0 && r.verifyErr == nil {
		r.verifyErr = fmt.Errorf("%d wrong values, first: %s", wrong, first)
	}
	c.Close()
	runtime.GC() // drop this cluster's backups before the next round
	return r, nil
}

func (r *round) p50ms() float64 { return ms(quantile(r.loop.lat, 0.50)) }

// p99ms returns the 99th percentile latency, or the highest percentile
// with at least 10 samples beyond it when there are fewer than 1000.
func (r *round) p99ms() float64 {
	return ms(quantile(r.loop.lat, tailPercentile(len(r.loop.lat), 99)/100))
}

func (r *round) cpuUsPerOp() float64 {
	return float64(r.cpu) / float64(time.Microsecond) / float64(max(r.loop.attempted, 1))
}

// bench runs one invocation. Untraced, it measures seconds/roundSeconds
// rounds and reports end-to-end medians. Traced, it measures one untraced
// and one traced round of roundSeconds each, reports counters, span
// attribution and tracing overhead, then runs the layer probes.
func bench(w *workload, seed int64, seconds int, traced bool) (*report, error) {
	d := time.Duration(min(seconds, roundSeconds)) * time.Second
	n := max(seconds/roundSeconds, 1)
	if traced {
		n = 2
	}
	var rounds []*round
	for i := 0; i <= n; i++ {
		r, err := runRound(w, seed, int64(i), d, traced && i == n)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	warmup := rounds[0]
	rounds = rounds[1:]

	rep := &report{Metrics: make(map[string]metric)}
	var late, pooled []time.Duration
	for _, r := range append([]*round{warmup}, rounds...) {
		rep.Attempted += r.loop.attempted
		// A key that reads back wrong counts as one more failed operation.
		rep.Failed += r.loop.failed + r.bad
		if r.loop.firstErr != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("operation failed: %v", r.loop.firstErr))
		}
		if r.verifyErr != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("wrong value: %v", r.verifyErr))
		}
	}
	for _, r := range rounds {
		pooled = append(pooled, r.loop.lat...)
		late = append(late, r.loop.late...)
	}
	sortDurations(late)
	sortDurations(pooled)
	rep.Correct = rep.Failed == 0 && len(rep.problems) == 0
	failFrac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	over := func(f func(r *round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	p99pct := tailPercentile(len(pooled), 99)
	rep.validity = map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"offered_rate":    w.rate,
		"connections":     numConns,
		"round_s":         d.Seconds(),
		"steal_share":     over(func(r *round) float64 { return r.steal }),
		"achieved_rate":   over(func(r *round) float64 { return float64(r.loop.attempted) / r.loop.elapsed.Seconds() }),
		"gen_late_p50_ms": ms(quantile(late, 0.50)),
		"gen_late_p99_ms": ms(quantile(late, tailPercentile(len(late), 99)/100)),
		"samples":         over(func(r *round) float64 { return float64(len(r.loop.lat)) }),
		"round_p50_ms":    over((*round).p50ms),
		"round_p99_ms":    over((*round).p99ms),
		"round_cpu_us":    over((*round).cpuUsPerOp),
		"round_setup_s":   over(func(r *round) float64 { return r.setup.Seconds() }),
		"pooled_samples":  len(pooled),
		"pooled_p99_pct":  p99pct,
		"pooled_p99_ms":   ms(quantile(pooled, p99pct/100)),
		"readback_keys":   over(func(r *round) float64 { return float64(r.checked) }),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
	}

	if !traced {
		rep.add("p50_ms", "ms", median(over((*round).p50ms)))
		rep.add("cpu_us_per_op", "us", median(over((*round).cpuUsPerOp)))
		rep.add("ok_frac", "ratio", 1-failFrac)
		rep.add("heap_mb", "MiB", median(over(func(r *round) float64 { return r.heapMB })))
		rep.add("setup_s", "s", median(over(func(r *round) float64 { return r.setup.Seconds() })))
		return rep, nil
	}

	plain, tr := rounds[0], rounds[1]
	rep.validity["traces"] = tr.spans.traces
	rep.validity["traces_finished"] = tr.after.TracesSampled - tr.before.TracesSampled
	rep.add("p99_ms", "ms", plain.p99ms())
	rep.add("fail_frac", "ratio", failFrac)
	addCounters(rep, plain, d)
	rep.add("storage.backup_mb_per_s", "MiB/s", (plain.heapMB-plain.heapStartMB)/plain.loop.elapsed.Seconds())
	for _, name := range append(append([]string{}, writeSpans...), readSpans...) {
		rep.add(name+".self_us", "us", tr.spans.meanSelfUs(name))
		rep.add(name+".cp_share", "ratio", tr.spans.cpShare(name))
	}
	rep.add(benchRoot+".cp_share", "ratio", tr.spans.cpShare(benchRoot))
	rep.add("trace.overhead_frac", "ratio", tr.cpuUsPerOp()/plain.cpuUsPerOp()-1)
	rep.add("trace.p50_overhead_frac", "ratio", tr.p50ms()/plain.p50ms()-1)

	layers, err := runProbes(w, seed)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, l := range layers {
		rep.add(l.name, l.unit, l.value)
	}
	return rep, nil
}

// addCounters reports the cluster counter deltas of an untraced round.
func addCounters(rep *report, r *round, d time.Duration) {
	a, b := r.before, r.after
	ops := float64(max(r.loop.attempted, 1))
	kops := ops / 1000
	commits := float64(b.Commits - a.Commits)
	frames := float64(b.FramingOps - a.FramingOps)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// MeanGroupSize is cumulative (grouped commits per frame since start);
	// undo the mean to get the window's grouped commits.
	grouped := b.MeanGroupSize*float64(b.FramingOps) - a.MeanGroupSize*float64(a.FramingOps)
	hits, misses := float64(b.CacheHits-a.CacheHits), float64(b.CacheMisses-a.CacheMisses)
	rep.add("bufcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.add("netsim.msgs_per_op", "msg/op", float64(b.NetworkMessages-a.NetworkMessages)/ops)
	rep.add("netsim.bytes_per_op", "B/op", float64(b.NetworkBytes-a.NetworkBytes)/ops)
	rep.add("volume.log_bytes_per_commit", "B/commit", ratio(float64(b.LogBytes-a.LogBytes), commits))
	rep.add("engine.group_size_mean", "commit/group", ratio(grouped, frames))
	rep.add("engine.frames_per_commit", "frame/commit", ratio(frames, commits))
	rep.add("volume.read_retries_per_kop", "1/kop", float64(b.ReadRetries-a.ReadRetries)/kops)
	rep.add("volume.hedges_per_kop", "1/kop", float64(b.Hedges-a.Hedges)/kops)
	rep.add("volume.hedge_win_ratio", "ratio", ratio(float64(b.HedgeWins-a.HedgeWins), float64(b.Hedges-a.Hedges)))
	rep.add("volume.write_retries_per_kop", "1/kop", float64(b.WriteRetries-a.WriteRetries)/kops)
	rep.add("volume.write_failures", "count", float64(b.WriteFailures-a.WriteFailures))
	// BackupObjects counts distinct object keys, one per segment, so this
	// reads 0 once every segment has been backed up; the version growth
	// shows in storage.backup_mb_per_s instead.
	rep.add("storage.backup_objects_per_s", "1/s", float64(b.BackupObjects-a.BackupObjects)/d.Seconds())
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}
