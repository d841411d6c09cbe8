package device

import (
	"sync"
	"time"

	"sero/internal/trace"
)

// The fan-out engine: every worker-plane pass (MoveGroups,
// WriteRunsFanned, ReadBlocksFanned, VerifyLines, Scan) runs through
// fanOut, so the parallel-hardware rule — a fanned pass costs its
// slowest worker, not the sum — is written once. Callers keep their
// own static partition of the work (so virtual time is a function of
// the workload alone, never of host scheduling) and their own gate.

// fanWidth resolves a pass's worker count over n > 0 items: workers
// <= 0 means the device's configured Concurrency, and no pass runs
// more workers than it has items.
func (d *Device) fanWidth(workers, n int) int {
	if workers <= 0 {
		workers = d.Concurrency()
	}
	return min(workers, n)
}

// fanOut runs work(w, pl) for w in [0, n) concurrently, each worker on
// a private latency plane (trace track w+1) whose clock starts at the
// shared clock's reading at launch, and closes the pass once every
// worker returns: each worker's stats fold into the device counters
// and the device clock advances by the maximum per-worker elapsed
// virtual time. The advance happens under arrMu so it cannot land
// inside a foreground operation's stopwatch window and inflate its
// per-op latency stats. The advance is also the pass's cost to its
// owner: it accumulates into task (nil-safe), and when tracing is on a
// join span named name, with V1 = n planes, covers the pass from
// launch to the slowest worker.
func (d *Device) fanOut(n int, task *trace.Task, name string, work func(w int, pl *plane)) {
	planes := make([]*plane, n)
	base := int64(d.clock.Now())
	var wg sync.WaitGroup
	for w := range planes {
		planes[w] = d.newPlane(int32(w+1), base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w, planes[w])
		}()
	}
	wg.Wait()
	var maxElapsed time.Duration
	for _, pl := range planes {
		maxElapsed = max(maxElapsed, pl.clock.Now())
		d.mergeStats(pl.stats)
	}
	d.arrMu.Lock()
	d.clock.Advance(maxElapsed)
	d.arrMu.Unlock()
	task.AddDevice(maxElapsed)
	if tr := d.tracer.Load(); tr != nil {
		tr.Emit(trace.Span{Name: name, Cat: "device", Track: d.p.TrackOffset, Session: -1,
			Start: base, Dur: int64(maxElapsed), V1: int64(n)})
	}
}
