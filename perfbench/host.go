package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window is the host cost of one slice of the measured phase. A run
// takes its per-op host rates as medians over the windows of all its
// episodes, so a few slow seconds on a shared host move them little.
type window struct {
	Ops    int    `json:"ops"`
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	Alloc  uint64 `json:"alloc"`
}

// meter accumulates the host cost of the measured phase: wall clock,
// process CPU (user+sys), Go heap bytes allocated and GC activity, in
// total and per window. start/stop pairs may repeat, so work done
// between them (a planted tamper, say) stays outside the figures.
type meter struct {
	wall    time.Duration
	gcs     uint32
	pauseNS uint64
	windows []window
	cur     window // the open window
	lastOps int    // measured op count when the open window began

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.wall += wall
	m.gcs += ms.NumGC - m.ms0.NumGC
	m.pauseNS += ms.PauseTotalNs - m.ms0.PauseTotalNs
	m.cur.WallNS += int64(wall)
	m.cur.CPUNS += int64(cpu)
	m.cur.Alloc += ms.TotalAlloc - m.ms0.TotalAlloc
}

// lap closes the open window at the given measured op count (the meter
// must be stopped).
func (m *meter) lap(ops int) {
	if m.cur.Ops = ops - m.lastOps; m.cur.Ops > 0 {
		m.windows = append(m.windows, m.cur)
	}
	m.cur, m.lastOps = window{}, ops
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssMB is the process's current resident set size in MiB, from
// /proc/self/statm (0 where that file is unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of v, which
// it sorts in place; 0 for an empty slice.
func percentile(v []int64, p float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(float64(len(v))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// p99Samples is the sample count from which a p99 has at least ten
// samples beyond it; below it a p99 is not reported.
const p99Samples = 1000

// median of v (mean of the middle pair for an even count); 0 when
// empty. v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// mean of v; 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
