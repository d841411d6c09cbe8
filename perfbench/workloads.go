package main

import (
	"fmt"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/sim"
	"sero/internal/workload"
)

// workloadDef is one benchmark workload: run executes a whole episode.
type workloadDef struct {
	name string
	run  func(e *episode) error
}

var workloadDefs = []workloadDef{
	{"serve-read", serveRead},
	{"ingest-steady", ingestSteady},
	{"audit-heat", auditHeat},
}

// windows is the number of host-cost windows the measured phase of a
// steady op mix is cut into (audit-heat's phases differ in kind, so it
// measures one window per episode).
const windows = 4

// serve-read: the serving tier's DefaultMix — read-mostly, zipfian(0.9)
// popularity, appends, namespace churn and append bursts — on one raw
// device big enough that the cleaner never runs. Creates rotate over
// four affinity classes, so Sync flushes several class buffers at once.
const (
	srFiles   = 2048
	srOps     = 8192
	srBlocks  = 16384
	srSegment = 256
	srClasses = 4
)

func serveRead(e *episode) error {
	e.buildRaw(srBlocks)
	err := e.format(lfs.Params{
		SegmentBlocks:    srSegment,
		CheckpointBlocks: checkpointBlocks(srFiles, srSegment),
		CheckpointEvery:  1 << 16,
		Concurrency:      workers,
		HeatAware:        true,
		ReserveSegments:  2,
	})
	if err != nil {
		return err
	}
	ops := e.gen(func(rng *sim.RNG) []workload.Op {
		ops := workload.DefaultMix(srFiles, srOps).Generate(rng)
		n := 0
		for i := range ops {
			if ops[i].Kind == workload.OpCreate {
				ops[i].Affinity = uint8(n % srClasses)
				n++
			}
		}
		return ops
	})
	split := skipOps(ops, 2*srFiles) // the Mix population: a create and a seed write per file
	e.replay(ops[:split], 0, 0)
	e.c.sync()

	e.beginMeasure()
	e.replayWindows(ops[split:], windows, 0, 0)
	e.endMeasure()

	if e.check {
		e.c.remount()
		e.c.readBack(nil)
	}
	return nil
}

// ingest-steady: a write-heavy Mix (about 62% appends, 11% reads, the
// rest create/rename/delete churn, a sync every 5 ops) on a width-4,
// one-parity array whose log holds about 40% live blocks, with the
// remaining segments mostly full of dead ones, so the cleaner runs
// hundreds of passes in the measured phase. The client runs one
// CleanStep every igCleanEvery stream ops, so cleaning is part of the
// deterministic op stream, and a low CheckpointEvery makes a share of
// the syncs checkpoint. The first igWarmOps mix ops fill the log and
// cycle the cleaner until write_amp has levelled off; the measured
// phase is the igMeasureOps that follow.
const (
	igMembers      = 4
	igParity       = 1
	igMemberBlocks = 1024
	igSegment      = 64
	igFiles        = 280
	igFileBlocks   = 4
	igWarmOps      = 5000
	igMeasureOps   = 8000
	igSyncEvery    = 5
	igCleanEvery   = 16
	igCleanTarget  = 4
	igCkptEvery    = 256
)

func ingestSteady(e *episode) error {
	if err := e.buildArray(igMembers, igParity, igMemberBlocks, igSegment); err != nil {
		return err
	}
	err := e.format(lfs.Params{
		SegmentBlocks:    igSegment,
		CheckpointBlocks: checkpointBlocks(igFiles, igSegment),
		CheckpointEvery:  igCkptEvery,
		Concurrency:      workers,
		HeatAware:        true,
		ReserveSegments:  2,
	})
	if err != nil {
		return err
	}
	ops := e.gen(func(rng *sim.RNG) []workload.Op {
		return workload.Mix{
			Files:      igFiles,
			FileBlocks: igFileBlocks,
			Ops:        igWarmOps + igMeasureOps,
			Prefix:     "in",
			CreateW:    0.12,
			AppendW:    0.58,
			ReadW:      0.10,
			RenameW:    0.04,
			DeleteW:    0.10,
			ZipfTheta:  0.5,
			SyncEvery:  igSyncEvery,
		}.Generate(rng)
	})
	warm := skipOps(ops, 2*igFiles+igWarmOps)
	e.replay(ops[:warm], igCleanEvery, igCleanTarget)

	e.beginMeasure()
	e.replayWindows(ops[warm:], windows, igCleanEvery, igCleanTarget)
	e.endMeasure()

	if e.check {
		e.c.remount()
		e.c.readBack(nil)
	}
	return nil
}

// audit-heat: the paper's own operation. Documents of 1..ahMaxBlocks
// blocks in ahClasses expiry classes are written and frozen into heated
// lines (workload.ComplianceIngest): the first half during the set-up,
// as the archive's existing evidence, the second half measured. Then
// ahCleanRounds full audit rounds sweep every line, ahTampers lines are
// forged outside the measured phase, the auditor must name exactly
// those lines within 2⌈L/b⌉ steps, an on-clock VerifyLines pass and a
// whole-medium Scan follow, and the FS is remounted.
const (
	ahBlocks      = 8192
	ahSegment     = 64
	ahDocs        = 512
	ahMaxBlocks   = 6
	ahClasses     = 4
	ahBatch       = 4
	ahCleanRounds = 2
	ahTampers     = 4
)

func auditHeat(e *episode) error {
	e.buildRaw(ahBlocks)
	err := e.format(lfs.Params{
		SegmentBlocks:    ahSegment,
		CheckpointBlocks: checkpointBlocks(ahDocs, ahSegment),
		Concurrency:      workers,
		HeatAware:        true,
		ReserveSegments:  2,
	})
	if err != nil {
		return err
	}
	ops := e.gen(func(rng *sim.RNG) []workload.Op {
		return workload.ComplianceIngest{Documents: ahDocs, MaxBlocks: ahMaxBlocks, Classes: ahClasses}.Generate(rng)
	})
	c := e.c
	half := 3 * ahDocs / 2 // create, write and heat per document
	e.replay(ops[:half], 0, 0)
	c.sync()

	e.beginMeasure()
	e.replay(ops[half:], 0, 0)
	lines := e.dev.Lines()
	for r := 0; r < ahCleanRounds; r++ {
		e.auditRound()
	}
	if f := c.fs.Stats().AuditFindings; f != 0 {
		c.fail(kAudit, fmt.Errorf("%d findings on an untampered medium", f))
	}

	e.pause()
	tampered, names := e.tamper(lines)
	e.resume()

	e.detect(len(lines), tampered)
	e.verifyAll(lines, tampered)
	c.call(kScan, func() error {
		rec, unparseable, err := e.dev.Scan()
		if err != nil {
			return err
		}
		if len(rec) != len(lines) || len(unparseable) != 0 {
			return fmt.Errorf("recovered %d of %d lines, %d unparseable blocks", len(rec), len(lines), len(unparseable))
		}
		return nil
	})
	c.remount()
	e.endMeasure()

	if e.check {
		c.readBack(names)
	}
	return nil
}

// auditRound drives AuditStep until the current round completes.
func (e *episode) auditRound() {
	for {
		var st lfs.AuditStats
		var more bool
		e.c.call(kAudit, func() error {
			st, more = e.c.fs.AuditStep(ahBatch)
			return nil
		})
		if !more || st.RoundComplete {
			return
		}
	}
}

// tamper forges one data block of ahTampers distinct lines, chosen from
// the seed, with a valid-looking frame written straight onto the medium.
// It returns the forged line starts and the names of their files.
func (e *episode) tamper(lines []device.LineInfo) (map[uint64]bool, map[string]bool) {
	rng := sim.NewRNG(e.seed ^ 0x7A3F)
	starts := make(map[uint64]bool)
	perm := rng.Perm(len(lines))
	for _, i := range perm[:ahTampers] {
		// Skip block 0 (the heat record) and block 1 (the inode, which
		// the remount reads): a forged data or padding block is what
		// the line hash alone must catch.
		li := lines[i]
		member := li.Start + 2 + rng.Uint64()%(li.Blocks()-2)
		forged := make([]byte, device.DataBytes)
		for j := range forged {
			forged[j] = byte(rng.Uint64())
		}
		bits := device.ForgedFrameBits(member, forged)
		base := int(member) * device.DotsPerBlock
		e.raw.TamperRaw(member-1, member+2, func(m *medium.Medium) {
			for j, b := range bits {
				m.MWB(base+j, b)
			}
		})
		starts[li.Start] = true
	}
	names := make(map[string]bool)
	for name := range e.c.shadow {
		ino, err := e.c.fs.Lookup(name)
		if err != nil {
			continue
		}
		in, err := e.c.fs.Stat(ino)
		if err != nil {
			continue
		}
		for _, ls := range in.HeatLines {
			if starts[ls] {
				names[name] = true
			}
		}
	}
	if len(names) != ahTampers {
		e.c.fail("tamper", fmt.Errorf("forged lines map to %d files, want %d", len(names), ahTampers))
	}
	return starts, names
}

// detect steps the auditor until it has reported every forged line,
// checking it does so within the 2⌈L/b⌉ bound and reports nothing else.
func (e *episode) detect(lines int, tampered map[uint64]bool) {
	c := e.c
	e.boundSteps = 2 * ((lines + ahBatch - 1) / ahBatch)
	found := func() int {
		n := 0
		for _, f := range c.fs.AuditFindings() {
			if !tampered[f.Line.Start] {
				c.fail(kAudit, fmt.Errorf("finding on untampered line %d", f.Line.Start))
			}
			n++
		}
		return n
	}
	for e.detectSteps = 1; e.detectSteps <= e.boundSteps; e.detectSteps++ {
		c.call(kAudit, func() error {
			c.fs.AuditStep(ahBatch)
			return nil
		})
		if found() >= len(tampered) {
			break
		}
	}
	if n := found(); n != len(tampered) {
		c.fail(kAudit, fmt.Errorf("%d findings after %d steps, want the %d forged lines", n, e.boundSteps, len(tampered)))
	}
}

// verifyAll runs one on-clock VerifyLines pass over every heated line;
// exactly the forged lines must fail.
func (e *episode) verifyAll(lines []device.LineInfo, tampered map[uint64]bool) {
	starts := make([]uint64, len(lines))
	for i, li := range lines {
		starts[i] = li.Start
	}
	v0 := e.dev.Clock().Now()
	e.c.call(kVerify, func() error {
		bad := 0
		for i, o := range e.dev.VerifyLines(starts, workers) {
			if o.Err != nil {
				return o.Err
			}
			if o.Report.Tampered() != tampered[starts[i]] {
				return fmt.Errorf("line %d: tampered=%v, forged=%v", starts[i], o.Report.Tampered(), tampered[starts[i]])
			}
			if o.Report.Tampered() {
				bad++
			}
		}
		if bad != len(tampered) {
			return fmt.Errorf("%d lines fail verification, want %d", bad, len(tampered))
		}
		return nil
	})
	e.verifyVirt = e.dev.Clock().Now() - v0
	e.verifyLines = len(starts)
}
