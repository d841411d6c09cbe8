package main

import (
	"fmt"
	"math/bits"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/sim"
	"sero/internal/workload"
)

// workers is the fan-out width of every FS engine and device pass: one
// worker plane per CPU of the reference host (2).
const workers = 2

// episode is one complete, self-contained pass of a workload: build the
// device, format, generate the op stream from the seed, populate and
// warm up (the set-up), run the measured phase, then optionally check. A run
// repeats episodes until it has measured for the requested time; every
// episode of a seed replays the same stream, so its virtual-time
// figures and counters must repeat exactly.
type episode struct {
	seed   uint64
	traced bool
	// check adds the end-of-episode check: remount and read back every
	// acked file. The run asks for it once; the other episodes replay
	// the same stream and must reach the same state, which the
	// fingerprint comparison confirms.
	check bool

	setupStart time.Time
	setup      time.Duration
	generate   time.Duration
	mediumNew  time.Duration
	rssSetupMB float64

	dev device.Dev     // what the FS runs on (decorated when traced)
	raw *device.Device // the raw device, nil under an array
	arr *array.Array   // nil on a raw device
	rec *recorder
	c   *client

	m         meter
	streamOps int // stream ops replayed so far, for the CleanStep cadence

	// Snapshots at the start and end of the measured phase.
	lfs0, lfs1 lfs.Stats
	ops0, ops1 device.OpStats
	arr0, arr1 array.Stats
	mw0, mw1   []uint64 // per-member magnetic writes
	virt0      time.Duration
	virt       time.Duration
	liveFill   float64

	// Audit oracle (audit-heat only).
	detectSteps, boundSteps int
	verifyLines             int
	verifyVirt              time.Duration
}

func newEpisode(seed uint64, traced, check bool) *episode {
	return &episode{seed: seed, traced: traced, check: check, setupStart: time.Now()}
}

// noiselessMedium is the serving tier's medium: default geometry with
// read noise, residual signal and thermal crosstalk off, so results do
// not depend on how worker planes interleave noise draws.
func noiselessMedium(blocks int) device.Params {
	dp := device.DefaultParams(blocks)
	mp := medium.DefaultParams(blocks, device.DotsPerBlock)
	mp.ReadNoiseSigma, mp.ResidualInPlaneSignal, mp.ThermalCrosstalk = 0, 0, 0
	dp.Medium = mp
	dp.Concurrency = workers
	return dp
}

// buildRaw builds one raw device of the given size.
func (e *episode) buildRaw(blocks int) {
	t0 := time.Now()
	e.raw = device.New(noiselessMedium(blocks))
	e.mediumNew = time.Since(t0)
	e.dev = e.raw
}

// buildArray builds an n-member array with the given parity count and
// per-member size; the stripe unit is one segment.
func (e *episode) buildArray(n, parity, memberBlocks, su int) error {
	t0 := time.Now()
	arr, err := array.Build(n, noiselessMedium(memberBlocks), array.Params{StripeBlocks: su, Parity: parity})
	e.mediumNew = time.Since(t0)
	if err != nil {
		return fmt.Errorf("building array: %w", err)
	}
	e.arr, e.dev = arr, arr
	return nil
}

// format makes the FS (through the span decorator when traced) and
// the client that drives it.
func (e *episode) format(p lfs.Params) error {
	if e.traced {
		e.rec = newRecorder(e.dev.Clock())
		e.dev = &tracedDev{Dev: e.dev, rec: e.rec}
	}
	fs, err := lfs.New(e.dev, p)
	if err != nil {
		return fmt.Errorf("formatting lfs: %w", err)
	}
	e.c = newClient(fs, e.arr, e.rec)
	return nil
}

// gen runs a generator on the episode's seed, timing it.
func (e *episode) gen(g func(rng *sim.RNG) []workload.Op) []workload.Op {
	t0 := time.Now()
	ops := g(sim.NewRNG(e.seed))
	e.generate += time.Since(t0)
	return ops
}

// checkpointBlocks sizes the checkpoint region so both slots hold the
// imap, directory and liveness table of a files-wide namespace (the
// serving tier's rule).
func checkpointBlocks(files, segBlocks int) int {
	slot := (72*files + 16384) / device.DataBytes
	n := 1 << bits.Len(uint(2*slot-1))
	if n < 2*segBlocks {
		n = 2 * segBlocks
	}
	return n
}

// memberWrites snapshots each array member's magnetic write count.
func (e *episode) memberWrites() []uint64 {
	if e.arr == nil {
		return []uint64{e.dev.Stats().MagneticWrites}
	}
	out := make([]uint64, e.arr.Members())
	for i := range out {
		out[i] = e.arr.MemberDevice(i).Stats().MagneticWrites
	}
	return out
}

func (e *episode) snapshot() (lfs.Stats, device.OpStats, array.Stats, []uint64) {
	var as array.Stats
	if e.arr != nil {
		as = e.arr.ArrayStats()
	}
	return e.c.stats(), e.dev.Stats(), as, e.memberWrites()
}

// beginMeasure ends the set-up and starts the measured phase.
func (e *episode) beginMeasure() {
	e.setup = time.Since(e.setupStart)
	e.rssSetupMB = rssMB()
	e.lfs0, e.ops0, e.arr0, e.mw0 = e.snapshot()
	e.virt0 = e.dev.Clock().Now()
	e.resume()
}

// pause and resume bracket work kept out of the measured phase.
func (e *episode) pause() {
	e.m.stop()
	e.setMeasuring(false)
}

func (e *episode) resume() {
	e.setMeasuring(true)
	e.m.start()
}

// setMeasuring switches op timing and span recording on or off.
func (e *episode) setMeasuring(on bool) {
	e.c.measuring = on
	if e.rec != nil {
		e.rec.on = on
	}
}

// lap closes a host-cost window of the measured phase.
func (e *episode) lap() {
	e.m.stop()
	e.m.lap(e.c.measuredOps)
	e.m.start()
}

// endMeasure closes the measured phase and takes the end snapshots.
func (e *episode) endMeasure() {
	e.pause()
	e.m.lap(e.c.measuredOps)
	e.virt = e.dev.Clock().Now() - e.virt0
	e.lfs1, e.ops1, e.arr1, e.mw1 = e.snapshot()
	var live, total int
	for _, s := range e.c.fs.Segments() {
		live += s.LiveBlocks
		total += s.Blocks
	}
	if total > 0 {
		e.liveFill = float64(live) / float64(total)
	}
}

// replay applies ops, calling CleanStep every cleanEvery stream ops
// (counted over the whole episode) when cleanEvery > 0.
func (e *episode) replay(ops []workload.Op, cleanEvery, cleanTarget int) {
	for _, op := range ops {
		e.c.apply(op)
		e.streamOps++
		if cleanEvery > 0 && e.streamOps%cleanEvery == 0 {
			e.c.call(kCleanStep, func() error {
				e.c.fs.CleanStep(cleanTarget)
				return nil
			})
		}
	}
}

// replayWindows replays the measured ops as n host-cost windows of
// nearly equal length.
func (e *episode) replayWindows(ops []workload.Op, n, cleanEvery, cleanTarget int) {
	for w := 0; w < n; w++ {
		if w > 0 {
			e.lap()
		}
		e.replay(ops[w*len(ops)/n:(w+1)*len(ops)/n], cleanEvery, cleanTarget)
	}
}

// skipOps returns the index of the first op after the first k non-sync
// ops of the stream and the syncs that follow them.
func skipOps(ops []workload.Op, k int) int {
	n := 0
	for i, op := range ops {
		if op.Kind == workload.OpSync {
			continue
		}
		if n == k {
			return i
		}
		n++
	}
	return len(ops)
}
