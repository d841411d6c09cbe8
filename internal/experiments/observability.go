package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/serve"
	"sero/internal/trace"
)

// E20 — the observability plane. Runs one traced serving-mix replay
// (the e18 workload at a fixed session count) with the span ring
// buffer attached, then renders what the trace shows: the compact
// text flamegraph per span kind (device settle/write/read and
// fan-out joins, lfs sync phases and cleaner rounds, serve ops), the
// per-session latency decomposition (own device time vs lock wait vs
// queueing behind other sessions), and the counters snapshot
// (appends, cleans, journal re-anchors, checkpoint fall-backs, stale
// moves). The same spans back `serocli trace -out trace.json`; this
// experiment is the glanceable in-terminal rendition.

// E20Result holds the traced run.
type E20Result struct {
	// Sessions, Files, MixOps describe the workload scale.
	Sessions, Files, MixOps int
	// Ops is the total op count applied (population included).
	Ops uint64
	// Virtual is the run's total virtual time.
	Virtual time.Duration
	// Spans is the number of spans captured; Dropped counts ring
	// overflow (0 at this scale).
	Spans int
	// Dropped counts spans lost to ring-buffer overflow.
	Dropped uint64
	// Summary is the per-kind span profile (trace.Summarize).
	Summary string
	// PerSession is the latency decomposition per session.
	PerSession []serve.SessionStats
	// Run is the full serving result (the counters rendered below).
	Run serve.Result
}

// RunE20 replays the serving mix once with tracing enabled.
func RunE20(sessions int, seed uint64) (E20Result, error) {
	const files, ops = 512, 2048
	cfg := serve.DefaultConfig(sessions, files, ops)
	cfg.Seed = seed
	cfg.SegmentBlocks = 64
	cfg.SyncEvery = 32
	tr := trace.New(trace.DefaultBuffer)
	r, err := serve.Run(cfg, tr)
	if err != nil {
		return E20Result{}, fmt.Errorf("e20: sessions=%d: %w", sessions, err)
	}
	spans := tr.Spans()
	return E20Result{
		Sessions:   sessions,
		Files:      files,
		MixOps:     ops,
		Ops:        r.TotalOps,
		Virtual:    time.Duration(r.VirtualNS),
		Spans:      len(spans),
		Dropped:    tr.Dropped(),
		Summary:    trace.Summarize(spans),
		PerSession: r.PerSession,
		Run:        r,
	}, nil
}

// Table renders E20.
func (r E20Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E20 — observability plane: %d files, %d mix ops, %d sessions, %d spans (%d dropped) over %v virtual\n\n",
		r.Files, r.MixOps, r.Sessions, r.Spans, r.Dropped, r.Virtual)
	b.WriteString(r.Summary)
	b.WriteString("\nper-session latency decomposition (virtual time; queue = waiting on other sessions' device work):\n")
	b.WriteString("session      ops     device   lock-wait       queue       total\n")
	for _, s := range r.PerSession {
		fmt.Fprintf(&b, "%-8d %7d %10v %11v %11v %11v\n",
			s.Session, s.Ops,
			time.Duration(s.DeviceNS), time.Duration(s.LockWaitNS),
			time.Duration(s.QueueNS), time.Duration(s.TotalNS))
	}
	fmt.Fprintf(&b, "\ncounters: blocks-appended=%d syncs=%d checkpoints=%d cleaner-passes=%d blocks-copied=%d journal-reanchors=%d checkpoint-fallbacks=%d moves-invalidated=%d\n",
		r.Run.BlocksAppended, r.Run.Syncs, r.Run.Checkpoints,
		r.Run.CleanerPasses, r.Run.BlocksCopied, r.Run.JournalReanchors,
		r.Run.CheckpointFallbacks, r.Run.MovesInvalidated)
	b.WriteString("tracing never advances the virtual clock: the same run with the tracer detached is byte-identical in virtual time\n")
	return b.String()
}
