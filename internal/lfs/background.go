package lfs

// The background cleaner. With Params.CleanWatermark > 0, cleaning is
// a background activity: the first time the append path sees the free
// pool at or below the watermark it arms a cleaner goroutine, and from
// then on every such dip kicks it. The goroutine runs phased passes
// (plan under fs.mu, copy off it, commit under it — see cleaner.go)
// until the reclaimable pool is back above the watermark, so the
// foreground thread that used to pay for a whole pass inline now pays
// at most the brief plan/commit windows.
//
// The background cleaner never checkpoints: segments it empties sit
// gated in SegFreeing until the next covering point a *foreground*
// operation writes (a Sync's summary record, a policy checkpoint, an
// explicit Clean). A checkpoint taken at an arbitrary background
// moment would persist namespace changes the application has not
// acked, weakening the crash contract; riding the existing covering
// points keeps "every mounted state is an acked state" intact. The
// watermark is therefore a target on *reclaimable* segments — the
// cleaner's half of the bargain — while conversion to allocatable
// rides the sync path, exactly as it does for inline cleaning.

// worker is a lazily armed, level-triggered background goroutine —
// the shape both the watermark cleaner and the audit cadence share.
// Its fields are written only under fs.mu; all three channels are nil
// until the first wake.
type worker struct {
	kick chan struct{} // one pending wake; wakes never block
	stop chan struct{} // closed once, by the first Close
	done chan struct{} // closed when the goroutine exits
}

// wake arms the worker on first use, starting a goroutine that calls
// step(fs) after every kick and again while step reports more work,
// and then delivers one wake. Caller holds fs.mu exclusively. The wake
// never blocks: one pending kick is all a level-triggered loop needs.
func (w *worker) wake(fs *FS, step func(*FS) bool) {
	if w.kick == nil {
		w.kick = make(chan struct{}, 1)
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go workerLoop(w.kick, w.stop, w.done, fs, step)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// workerLoop is the worker goroutine: wait for a kick, then call step
// until it reports no more work. A closed stop ends it before the next
// step.
func workerLoop(kick, stop <-chan struct{}, done chan<- struct{}, fs *FS, step func(*FS) bool) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-kick:
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !step(fs) {
				break
			}
		}
	}
}

// halt stops an armed worker and waits for its goroutine to exit; only
// the first Close (first) closes stop. A never-armed worker is a no-op.
func (w worker) halt(first bool) {
	if w.stop == nil {
		return
	}
	if first {
		close(w.stop)
	}
	<-w.done
}

// kickCleanerLocked arms (on first use) and wakes the background
// cleaner. Caller holds fs.mu exclusively. A no-op when the watermark
// policy is off or the FS is closed.
func (fs *FS) kickCleanerLocked() {
	if fs.p.CleanWatermark > 0 && !fs.closed {
		fs.bgClean.wake(fs, (*FS).cleanBackground)
	}
}

// cleanBackground is one step of the background cleaner: run phased
// cleaning passes until the reclaimable pool is back above the
// watermark, and report whether the pass made net progress. No
// progress (nothing cleanable at current utilisation, a foreground
// pass holds the cleaner, or the pass's own appends ate what it freed)
// parks the worker rather than spinning — the next allocation dip
// re-kicks it. (Judging progress by gross segments freed would
// livelock here: near capacity a pass can keep freeing victims while
// netting zero.)
func (fs *FS) cleanBackground() bool {
	fs.mu.Lock()
	wm := fs.p.CleanWatermark
	before := fs.sm.reclaimable()
	fs.mu.Unlock()
	if before >= wm {
		return false
	}
	cs := fs.cleanPhased(wm)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if cs.SegmentsCleaned > 0 || cs.BlocksCopied > 0 {
		fs.stats.CleanerBgRuns++
	}
	return fs.sm.reclaimable() > before
}

// Close stops the background cleaner and the background auditor,
// waiting for any in-flight pass to commit. It does not sync: call
// Sync (or Checkpoint) first if buffered data must be durable. The FS
// remains usable after Close — foreground operations, explicit Clean
// and AuditStep keep working; only the watermark and audit-cadence
// policies are retired. Close is idempotent and safe to call
// concurrently with foreground operations: every Close waits, so a
// second concurrent Close does not return while the goroutine the
// first one is stopping still issues device writes.
func (fs *FS) Close() error {
	fs.mu.Lock()
	first := !fs.closed
	fs.closed = true
	clean, audit := fs.bgClean, fs.bgAudit
	fs.mu.Unlock()
	clean.halt(first)
	audit.halt(first)
	return nil
}
