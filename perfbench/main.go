// Command perfbench is the repository's benchmark: it drives an
// aurora.Cluster through its public API with an open-loop load, checks
// every value it reads, and prints end-to-end metrics (with --trace 0) or
// per-layer metrics (with --trace 1). See usage below.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

const usage = `perfbench: the aurora benchmark.

Usage (from the repository root):

  bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object:
  {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
The lines before it print the same metrics by name with their unit, and a
"validity" record: per round the CPU steal share of the host (from
/proc/stat) and the sample count, generator lateness p50/p99, nproc,
GOMAXPROCS and the Go version, so that a run disturbed by the host can be
recognised. The command exits 1 when any operation failed or any value
read back was wrong, and 2 on bad usage.

Cluster. aurora.NewCluster with default Options: 4 protection groups x 6
replicas = 24 storage nodes, the zero-latency NetFast network, FastLocal
disks, continuous backup and the storage background loops on. Only
CachePages changes, where a workload says so. NetFast because on the
modelled-latency profile (NetDatacenter) each 100-500us hop sleeps about
1.1ms on a small virtual machine, so its numbers measure the host's timer,
not the program; on NetFast only the program's own CPU and synchronisation
remain. The paper's network argument is still covered by the message and
byte counts per operation.

Load. One process, open loop at a fixed offered rate over 2 connections,
each offering rate/2 on a seeded, jittered schedule (operation i due at
(i+u)*2/rate, u uniform in [0,1)). An operation queued behind a busy
connection is timed from its due time; one the generator slept for is
timed from the moment it woke (a sleep overshoots by up to a timer tick,
which is the generator's fault, reported as generator lateness). Writes
are partitioned by key between the connections, so no two transactions
contend for a row lock.

Rounds. A run is a series of rounds of 4 seconds, each on a freshly
created and loaded cluster: one unmeasured round (the process's first
cluster pays for mapping its heap), then --seconds/4 measured rounds. An
end-to-end metric is the median over the measured rounds.

Workloads. One table of 20000 rows with 100-byte values (about 2.4 MB).
  write-commit  300 txn/s, each Puts 4 uniformly chosen keys and commits;
                default cache (4096 pages), so the table fits. Every
                operation runs the whole commit path (engine pipeline,
                framer, volume senders, netsim, storage ingest and sync,
                quorum/VDL) while reads stay in cache: write-path changes
                show here.
  read-cold     2000 Get/s, uniform point reads, no writes after the load;
                CachePages 256 (1 MiB), smaller than the table. Misses go
                through volume read routing and hedging, netsim and
                storage.ReadPage while the commit path idles: read-path and
                cache changes show here, write-path changes should not.
  oltp-mixed    300 txn/s of 4 point reads and 2 updates (SysBench-OLTP
                shape) on the read-cold set-up, where reads and redo meet at
                the same storage nodes and in the cache. Not part of the
                benchmark's workload set: of 13 runs (seeds 1-8 for 8s,
                11-15 for 40s) one failed a read with "segment not complete
                at read point" (the replica's SCL 15 LSNs short of the
                required point), a read-path defect of the program, and a
                workload that fails runs cannot be judged by its spread. It
                stays runnable so that the defect shows; the command exits
                1 when it does.

Correctness. read-cold compares every value read with the seed-derived
loaded value. write-commit and oltp-mixed record the newest acknowledged
version of each key, check every in-transaction read against it, and read
every written key back after each round. A mismatch counts as a failed
operation.

End-to-end metrics (--trace 0), medians over the measured rounds:
  p50_ms         median operation latency (one transaction or one Get);
                 it tracks host steal: on a 2-vCPU host the read-cold
                 round median was 0.061ms at under 1% steal and 0.097ms
                 above 20%, so compare runs whose steal_share is alike
  cpu_us_per_op  process user+sys CPU over the window per operation,
                 background loops and backup included; host steal barely
                 moves it, so it is the capacity metric
  ok_frac        operations that succeeded with correct values per
                 operation attempted (1 - fail_frac; never 0)
  heap_mb        live Go heap after the window, object store included
  setup_s        cluster creation, table load and warm-up
The p99 of each round and of all rounds pooled is in the validity record,
and p99_ms is a per-layer metric, not a bounded one: the tail is set by
the program's backup bursts (all 24 nodes snapshot together every 200ms)
stretched by the hypervisor's steal (0-25% on a 2-vCPU host). Over two
sets of ten seeds its interquartile range was 0.19-0.26 (write-commit)
and 0.56-0.69 (read-cold) of its median.

Per-layer metrics (--trace 1): one unmeasured, one untraced and one traced
round. The untraced round gives p99_ms, fail_frac and Cluster.Stats()
counter deltas. The traced round samples every commit and page read
through the program's own tracer (Cluster.Tracer) and reports, per span,
mean self time (<span>.self_us; duration minus the union of its ended
children) and its share of the critical path of the benchmark's own root
spans around each operation (<span>.cp_share, from trace.CriticalPath),
plus the tracing overhead. Layer probes then call each layer's public
functions directly on workload-shaped inputs and report ns and
allocations per operation.

Memory ceiling. Every 200ms each of the 24 storage nodes writes a full
segment snapshot to the in-process object store, which keeps every
version: the live heap grows by about 130 MiB a second whether or not the
workload writes. Rounds stay short and fresh for that reason, and runs
must execute one at a time; heap_mb reports the growth rather than hiding
it.

Left out, none of them a default Option: LogSplit (the role-split quorum)
and AutoTune (the adaptive control plane), each waiting for a benchmark
issue of its own; multi-tenant fleets and read replicas, which a single
aurora.NewCluster run does not create; the MySQL-style baseline, a
comparison rather than the program under test; NetDatacenter, which waits
for a virtual clock (see Cluster above).

Flags:
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: write-commit, read-cold or oltp-mixed")
	seed := fs.Int64("seed", 1, "seed for keys, values and operation choices")
	seconds := fs.Int("seconds", 40, "measured seconds, run as rounds of 4s (traced runs: one round)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		fs.Usage()
		return 2
	}
	rep, err := bench(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one benchmark invocation.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string       // metric names in the order they were added
	validity map[string]any // run conditions, printed before the result
	problems []string       // why the run is not correct
}

func (r *report) add(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the report; it fails, printing no result line, when a value
// cannot be encoded (a NaN or infinity from an empty measurement).
func (r *report) print(out io.Writer) error {
	v, err := json.Marshal(r.validity)
	if err != nil {
		return fmt.Errorf("encoding validity: %w", err)
	}
	res, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "problem:", p)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "validity %s\n%s\n", v, res)
	return nil
}
