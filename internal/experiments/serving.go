package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/serve"
)

// E18 — the serving tier. Replays the DefaultMix serving workload
// (zipfian-0.9 popularity, read-mostly with appends, namespace churn
// and append bursts) against one FS from N concurrent sessions, the
// namespace and op budget partitioned over the sessions, and reports
// virtual-time latency percentiles per op kind plus sustained
// throughput — a scaled-down in-process rendition of the
// BENCH_serving.json macro-benchmark (`serocli bench-serve` records
// the 10⁵-file trajectory; this experiment makes the session sweep
// inspectable in seconds).

// E18Row is one session-count configuration.
type E18Row struct {
	// Sessions is the concurrent-session count.
	Sessions int
	// Ops is the total op count applied (population included).
	Ops uint64
	// Throughput is sustained ops per virtual second.
	Throughput float64
	// ReadP50, ReadP99 are read-latency percentiles.
	ReadP50, ReadP99 time.Duration
	// SyncP99 is the sync-latency 99th percentile (syncs carry the
	// flushed device work of the appends before them).
	SyncP99 time.Duration
	// Worst is the worst single op of any kind.
	Worst time.Duration
}

// E18Result holds the session sweep.
type E18Result struct {
	// Files and MixOps describe the per-run workload scale.
	Files, MixOps int
	// Rows holds one entry per session count.
	Rows []E18Row
}

// RunE18 sweeps session counts 1, 2, 4, … up to maxSessions (rounded
// down to a power of two) over the same total workload.
func RunE18(maxSessions int, seed uint64) (E18Result, error) {
	const files, ops = 512, 2048
	res := E18Result{Files: files, MixOps: ops}
	for n := 1; n <= maxSessions; n *= 2 {
		cfg := serve.DefaultConfig(n, files, ops)
		cfg.Seed = seed
		cfg.SegmentBlocks = 64
		cfg.SyncEvery = 32
		r, err := serve.Run(cfg, nil)
		if err != nil {
			return res, fmt.Errorf("e18: sessions=%d: %w", n, err)
		}
		row := E18Row{
			Sessions:   n,
			Ops:        r.TotalOps,
			Throughput: r.ThroughputOpsPerSec,
			ReadP50:    time.Duration(r.PerOp["read"].P50NS),
			ReadP99:    time.Duration(r.PerOp["read"].P99NS),
			SyncP99:    time.Duration(r.PerOp["sync"].P99NS),
		}
		for _, st := range r.PerOp {
			if d := time.Duration(st.WorstNS); d > row.Worst {
				row.Worst = d
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders E18.
func (r E18Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E18 — serving tier: %d files, %d mix ops, namespace and ops partitioned over N sessions\n",
		r.Files, r.MixOps)
	b.WriteString("sessions      ops   kops/vsec   read-p50   read-p99   sync-p99   worst-op\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %8d %11.1f %10v %10v %10v %10v\n",
			row.Sessions, row.Ops, row.Throughput/1000,
			row.ReadP50, row.ReadP99, row.SyncP99, row.Worst)
	}
	b.WriteString("one shared device clock accumulates the serialised work: per-op latency includes queueing behind other sessions — the tail a loaded server's client observes\n")
	return b.String()
}
