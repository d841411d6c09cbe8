package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/serve"
	"sero/internal/sim"
)

// E22 — the striped multi-volume array. Four questions about one
// sero.FS spread over N member devices with rotated Reed–Solomon
// parity (internal/array):
//
//  1. Scaling: serving throughput across widths. N members are N
//     overlapping foreground timelines — the array clock is the
//     slowest member's, so a striped run's virtual time approaches
//     total-work/N plus the parity tax. Measured by replaying the
//     same serving mix at width 1, 2 and 4.
//  2. Width-1 equivalence: a one-member array must be byte-identical
//     — layout AND virtual time — to the raw device (the fourth
//     ARCHITECTURE.md contract). Measured as exact virtual-time
//     equality of a single-session serving pair.
//  3. Degraded serving: with one member failed, every read touching
//     it reconstructs from the survivors' parity group. Measured as
//     the degraded run's throughput against the healthy run, with the
//     reconstruction counters reported.
//  4. Self-healing: a forged frame inside a heated line is found by
//     the incremental auditor and healed in place from parity
//     (core.Repairer → array.RepairLine). Measured as audit steps
//     from tamper to confirmed heal.

// E22Width is one geometry's serving measurement.
type E22Width struct {
	// Devices and Parity describe the geometry.
	Devices, Parity int
	// Virtual is the run's total virtual time.
	Virtual time.Duration
	// Throughput is sustained ops per virtual second.
	Throughput float64
	// Speedup is Throughput over the raw-device baseline's.
	Speedup float64
	// ParityWrites counts parity blocks the array flushed.
	ParityWrites uint64
	// MemberClocks are the per-member timelines; the run's Virtual is
	// their maximum (slowest-member contract).
	MemberClocks []time.Duration
}

// E22Result holds all four measurements.
type E22Result struct {
	// Sessions, Files, MixOps describe the serving runs.
	Sessions, Files, MixOps int
	// Baseline is the raw single-device trajectory the widths compare
	// against.
	Baseline E22Width
	// Widths holds the striped runs (width 1 included — its speedup
	// must be ~1.0).
	Widths []E22Width
	// RawVirtual and Width1Virtual are the single-session equivalence
	// pair; Width1Identical is their exact equality.
	RawVirtual, Width1Virtual time.Duration
	Width1Identical           bool
	// Degraded is the member-loss serving run at the widest geometry.
	Degraded E22Width
	// DegradedReads and ReconstructedBlocks count the degraded run's
	// parity-group reconstructions.
	DegradedReads, ReconstructedBlocks uint64
	// HealLines is the heated-line population of the self-healing
	// trial; HealSteps the audit steps from tamper to confirmed heal;
	// HealBound the auditor's documented detection bound in steps.
	HealLines, HealSteps, HealBound int
	// Healed reports whether the tampered line re-verified clean after
	// the auditor's repair.
	Healed bool
}

// e22Width runs the serving mix over one array geometry.
func e22Width(cfg serve.Config, devices, parity, degraded int, baselineTP float64) (E22Width, serve.Result, error) {
	cfg.Devices = devices
	cfg.ParityDevices = parity
	cfg.DegradedDevices = degraded
	res, err := serve.Run(cfg, nil)
	if err != nil {
		return E22Width{}, res, err
	}
	w := E22Width{
		Devices:      devices,
		Parity:       parity,
		Virtual:      time.Duration(res.VirtualNS),
		Throughput:   res.ThroughputOpsPerSec,
		ParityWrites: res.ParityBlockWrites,
	}
	if baselineTP > 0 {
		w.Speedup = res.ThroughputOpsPerSec / baselineTP
	}
	for _, ds := range res.PerDevice {
		w.MemberClocks = append(w.MemberClocks, time.Duration(ds.ClockNS))
	}
	return w, res, nil
}

// e22Heal runs the self-healing trial: heated population, forged
// frame, audit rounds with the repair arm wired to array.RepairLine.
func e22Heal(seed uint64) (lines, steps, bound int, healed bool, err error) {
	dp := device.DefaultParams(1024)
	mp := medium.DefaultParams(1024, device.DotsPerBlock)
	mp.ReadNoiseSigma, mp.ResidualInPlaneSignal, mp.ThermalCrosstalk = 0, 0, 0
	dp.Medium = mp
	arr, err := array.Build(3, dp, array.Params{StripeBlocks: 16, Parity: 1})
	if err != nil {
		return 0, 0, 0, false, err
	}
	fs, err := lfs.New(arr, lfs.Params{
		SegmentBlocks: 16, CheckpointBlocks: 16, HeatAware: true, ReserveSegments: 2,
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("e22-frozen-%d", i)
		ino, cerr := fs.Create(name, uint8(i%4))
		if cerr != nil {
			return 0, 0, 0, false, cerr
		}
		data := make([]byte, 2*device.DataBytes)
		for j := range data {
			data[j] = byte(i + 1)
		}
		if werr := fs.WriteFile(ino, data); werr != nil {
			return 0, 0, 0, false, werr
		}
		if _, herr := fs.HeatFile(name); herr != nil {
			return 0, 0, 0, false, herr
		}
	}
	if serr := fs.Sync(); serr != nil {
		return 0, 0, 0, false, serr
	}

	// Forge a valid-looking frame into a random heated data block, raw
	// on the owning member's medium.
	rng := sim.NewRNG(seed ^ 0xE22)
	all := arr.Lines()
	lines = len(all)
	li := all[rng.Uint64()%uint64(lines)]
	victim := li.Start + 1 + rng.Uint64()%(li.Blocks()-1)
	member, lpba := arr.Locate(victim)
	forged := make([]byte, device.DataBytes)
	for i := range forged {
		forged[i] = byte(rng.Uint64())
	}
	bits := device.ForgedFrameBits(lpba, forged)
	base := int(lpba) * device.DotsPerBlock
	from := lpba
	if from > 0 {
		from--
	}
	arr.MemberDevice(member).TamperRaw(from, lpba+2, func(m *medium.Medium) {
		for i, b := range bits {
			m.MWB(base+i, b)
		}
	})

	fs.SetAuditRepairer(arr.RepairLine)
	const batch = 2
	bound = 2 * ((lines + batch - 1) / batch)
	for steps = 1; steps <= bound; steps++ {
		fs.AuditStep(batch)
		if fs.Stats().AuditRepairs > 0 {
			break
		}
	}
	rep, verr := arr.VerifyLine(li.Start)
	healed = verr == nil && rep.OK && fs.Stats().AuditRepairs == 1
	return lines, steps, bound, healed, nil
}

// RunE22 measures the striped array: width scaling, width-1
// equivalence, degraded serving and auditor self-healing.
func RunE22(sessions int, seed uint64) (E22Result, error) {
	const files, ops = 1024, 4096
	res := E22Result{Sessions: sessions, Files: files, MixOps: ops}
	cfg := serve.DefaultConfig(sessions, files, ops)
	cfg.Seed = seed
	cfg.SegmentBlocks = 64
	cfg.SyncEvery = 32
	cfg.HeatFiles = 16

	baseline, braw, err := e22Width(cfg, 0, 0, 0, 0)
	if err != nil {
		return res, fmt.Errorf("e22: baseline: %w", err)
	}
	baseline.Devices = 1
	baseline.Speedup = 1
	res.Baseline = baseline
	for _, g := range []struct{ n, p int }{{1, 0}, {2, 1}, {4, 1}} {
		w, _, werr := e22Width(cfg, g.n, g.p, 0, braw.ThroughputOpsPerSec)
		if werr != nil {
			return res, fmt.Errorf("e22: width %d: %w", g.n, werr)
		}
		res.Widths = append(res.Widths, w)
	}

	// The equivalence pair runs one session: multi-session interleaving
	// (and hence cleaning order) is schedule-dependent, single-session
	// trajectories are exact.
	one := serve.DefaultConfig(1, 256, 1024)
	one.Seed = seed
	one.SegmentBlocks = 64
	one.SyncEvery = 32
	rawR, err := serve.Run(one, nil)
	if err != nil {
		return res, fmt.Errorf("e22: raw single-session: %w", err)
	}
	one.Devices = 1
	w1R, err := serve.Run(one, nil)
	if err != nil {
		return res, fmt.Errorf("e22: width-1 single-session: %w", err)
	}
	res.RawVirtual = time.Duration(rawR.VirtualNS)
	res.Width1Virtual = time.Duration(w1R.VirtualNS)
	res.Width1Identical = rawR.VirtualNS == w1R.VirtualNS

	deg, dres, err := e22Width(cfg, 4, 1, 1, braw.ThroughputOpsPerSec)
	if err != nil {
		return res, fmt.Errorf("e22: degraded: %w", err)
	}
	res.Degraded = deg
	res.DegradedReads = dres.DegradedReads
	res.ReconstructedBlocks = dres.ReconstructedBlocks

	lines, steps, bound, healed, err := e22Heal(seed)
	if err != nil {
		return res, fmt.Errorf("e22: self-healing trial: %w", err)
	}
	res.HealLines, res.HealSteps, res.HealBound, res.Healed = lines, steps, bound, healed
	return res, nil
}

// Table renders E22.
func (r E22Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E22 — striped multi-volume array: serving mix (%d sessions, %d files, %d ops)\n\n",
		r.Sessions, r.Files, r.MixOps)
	b.WriteString("devices parity      virtual        ops/vsec  speedup  parity-writes\n")
	row := func(label string, w E22Width) {
		fmt.Fprintf(&b, "%-7s %6d %12v %15.0f %8.2fx %14d\n",
			label, w.Parity, w.Virtual, w.Throughput, w.Speedup, w.ParityWrites)
	}
	row("raw", r.Baseline)
	for _, w := range r.Widths {
		row(fmt.Sprintf("%d", w.Devices), w)
	}
	row("4 (deg)", r.Degraded)
	fmt.Fprintf(&b, "\ndegraded serving: %d reads reconstructed (%d blocks rebuilt from parity), one member down\n",
		r.DegradedReads, r.ReconstructedBlocks)
	fmt.Fprintf(&b, "\nwidth-1 equivalence (single session): raw %v vs width-1 %v — ",
		r.RawVirtual, r.Width1Virtual)
	if r.Width1Identical {
		b.WriteString("identical (fourth contract holds)\n")
	} else {
		b.WriteString("DIVERGED — the width-1 contract is broken\n")
	}
	fmt.Fprintf(&b, "\nself-healing: tampered heated line (of %d) found and repaired from parity in %d audit steps (bound %d): %v\n",
		r.HealLines, r.HealSteps, r.HealBound, r.Healed)
	if last := r.Widths[len(r.Widths)-1]; len(last.MemberClocks) > 0 {
		fmt.Fprintf(&b, "\nwidth-%d member timelines (virtual = slowest member):", last.Devices)
		for m, c := range last.MemberClocks {
			fmt.Fprintf(&b, " m%d=%v", m, c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
