package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: the total of all
// fields and the steal field, in clock ticks. ok is false where the file
// is unavailable.
type cpuTicks struct {
	total, steal uint64
	ok           bool
}

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTicks{}
			}
			// guest and guest_nice (fields 9 and 10) are already counted
			// in user and nice.
			if i < 8 {
				t.total += v
			}
			if i == 7 {
				t.steal = v
			}
		}
		t.ok = true
		return t
	}
	return cpuTicks{}
}

// stealShare returns the share of host CPU time stolen by the hypervisor
// between two readings, or -1 when it cannot be measured.
func stealShare(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// heapInUseMB collects garbage and returns the live Go heap in MiB.
func heapInUseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
