package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/attack"
	"sero/internal/device"
	"sero/internal/medium"
	"sero/internal/serve"
	"sero/internal/sim"
	"sero/internal/workload"
)

// E21 — online verification. Two questions about the continuous
// background auditor:
//
//  1. Detection latency: a tamper of a random heated block at a random
//     moment during live traffic must surface within the documented
//     2*ceil(L/batch) audit-step bound. Measured across batch sizes by
//     forging a frame into a live system and counting the steps until
//     the auditor reports the line.
//  2. Foreground cost: audit work runs off-clock (shadow planes, never
//     the shared clock), so the serving trajectory with continuous
//     verification armed must be virtual-time identical to the same
//     run without it. Measured by replaying the e18 serving mix twice
//     — audit off and audit on — and comparing virtual times; the
//     audit counters report the shadow device cost the sweeps would
//     have added on-clock.

// E21Batch is the detection-latency measurement at one batch size.
type E21Batch struct {
	// Batch is the lines-verified-per-step batch size.
	Batch int
	// Bound is the documented worst case in steps: 2*ceil(L/Batch).
	Bound int
	// MeanSteps and MaxSteps summarise the observed steps-to-detection
	// across trials.
	MeanSteps float64
	MaxSteps  int
	// ShadowNSPerStep is the mean off-clock device cost of one step.
	ShadowNSPerStep int64
}

// E21Result holds both measurements.
type E21Result struct {
	// Lines is the heated-line population L the detection trials swept.
	Lines int
	// Trials is the tamper trials run per batch size.
	Trials int
	// PerBatch holds the detection-latency sweep.
	PerBatch []E21Batch
	// OffVirtual and OnVirtual are the serving run's virtual time with
	// audit disarmed and armed; the off-clock contract demands they be
	// identical.
	OffVirtual, OnVirtual time.Duration
	// Sessions, Files, MixOps describe the serving runs.
	Sessions, Files, MixOps int
	// On is the audit-armed serving result (the audit counters below
	// come from it).
	On serve.Result
}

// forgeRandomBlock writes a forged valid-looking frame into a random
// member block of a random heated line, under the stripe locks like a
// live attacker racing traffic, and returns the tampered line start.
func forgeRandomBlock(dev *device.Device, rng *sim.RNG) uint64 {
	lines := dev.Lines()
	li := lines[rng.Uint64()%uint64(len(lines))]
	member := li.Start + 1 + rng.Uint64()%(li.Blocks()-1)
	forged := make([]byte, device.DataBytes)
	for i := range forged {
		forged[i] = byte(rng.Uint64())
	}
	bits := device.ForgedFrameBits(member, forged)
	base := int(member) * device.DotsPerBlock
	start := member
	if start > 0 {
		start--
	}
	dev.TamperRaw(start, member+2, func(m *medium.Medium) {
		for i, b := range bits {
			m.MWB(base+i, b)
		}
	})
	return li.Start
}

// e21Trial builds a live victim system (heated population + serving
// churn), tampers one random block and counts audit steps to
// detection at the given batch size.
func e21Trial(batch int, seed uint64) (steps, lines int, shadowNS int64, err error) {
	h, err := attack.NewQuietHarness(attack.QuietConfig{Blocks: 4096, Seed: seed})
	if err != nil {
		return 0, 0, 0, err
	}
	fs := h.FS()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("e21-frozen-%d", i)
		ino, err := fs.Create(name, uint8(i%4))
		if err != nil {
			return 0, 0, 0, err
		}
		data := make([]byte, 2*device.DataBytes)
		for j := range data {
			data[j] = byte(i + 1)
		}
		if err := fs.WriteFile(ino, data); err != nil {
			return 0, 0, 0, err
		}
		if _, err := fs.HeatFile(name); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := fs.Sync(); err != nil {
		return 0, 0, 0, err
	}
	mix := workload.DefaultMix(8, 128)
	mix.Prefix = "e21"
	if _, err := workload.Apply(fs, mix.Generate(sim.NewRNG(seed^0xE21))); err != nil {
		return 0, 0, 0, err
	}

	dev := fs.Device().(*device.Device)
	lines = len(dev.Lines())
	tampered := forgeRandomBlock(dev, sim.NewRNG(seed*2654435761))
	found := func() bool {
		for _, f := range fs.AuditFindings() {
			if f.Line.Start == tampered {
				return true
			}
		}
		return false
	}
	before := fs.Stats()
	bound := 2 * ((lines + batch - 1) / batch)
	for steps = 1; steps <= bound; steps++ {
		fs.AuditStep(batch)
		if found() {
			break
		}
	}
	if !found() {
		return 0, lines, 0, fmt.Errorf("e21: tamper of line %d not detected within bound %d (batch %d)", tampered, bound, batch)
	}
	after := fs.Stats()
	shadowNS = int64(after.AuditDeviceNS-before.AuditDeviceNS) / int64(steps)
	return steps, lines, shadowNS, nil
}

// RunE21 runs the detection-latency sweep and the audit-tax serving
// pair.
func RunE21(seed uint64) (E21Result, error) {
	const trials = 3
	res := E21Result{Trials: trials}
	for _, batch := range []int{1, 2, 4, 8} {
		b := E21Batch{Batch: batch}
		sum := 0
		var shadow int64
		for t := 0; t < trials; t++ {
			steps, lines, ns, err := e21Trial(batch, seed+uint64(batch*100+t))
			if err != nil {
				return E21Result{}, err
			}
			res.Lines = lines
			b.Bound = 2 * ((lines + batch - 1) / batch)
			sum += steps
			shadow += ns
			if steps > b.MaxSteps {
				b.MaxSteps = steps
			}
		}
		b.MeanSteps = float64(sum) / trials
		b.ShadowNSPerStep = shadow / trials
		res.PerBatch = append(res.PerBatch, b)
	}

	// The audit-tax pair: same serving mix over a heated population,
	// audit disarmed vs armed. One session: at j=1 the virtual-time
	// trajectory is deterministic, so equality is exact — the same
	// byte-identical contract the attack soak test asserts.
	const sessions, files, ops = 1, 256, 1024
	res.Sessions, res.Files, res.MixOps = sessions, files, ops
	cfg := serve.DefaultConfig(sessions, files, ops)
	cfg.Seed = seed
	cfg.SegmentBlocks = 64
	cfg.SyncEvery = 32
	cfg.HeatFiles = 8
	off, err := serve.Run(cfg, nil)
	if err != nil {
		return E21Result{}, fmt.Errorf("e21: audit-off run: %w", err)
	}
	cfg.AuditEvery = 64
	on, err := serve.Run(cfg, nil)
	if err != nil {
		return E21Result{}, fmt.Errorf("e21: audit-on run: %w", err)
	}
	res.OffVirtual = time.Duration(off.VirtualNS)
	res.OnVirtual = time.Duration(on.VirtualNS)
	res.On = on
	return res, nil
}

// Table renders E21.
func (r E21Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E21 — online verification: detection latency over %d heated lines (%d trials per batch)\n\n", r.Lines, r.Trials)
	b.WriteString("batch   bound   mean-steps   max-steps   shadow-ns/step\n")
	for _, pb := range r.PerBatch {
		fmt.Fprintf(&b, "%5d %7d %12.1f %11d %16d\n",
			pb.Batch, pb.Bound, pb.MeanSteps, pb.MaxSteps, pb.ShadowNSPerStep)
	}
	fmt.Fprintf(&b, "\naudit tax on the serving mix (%d sessions, %d files, %d ops):\n", r.Sessions, r.Files, r.MixOps)
	fmt.Fprintf(&b, "  audit off: %v virtual\n", r.OffVirtual)
	fmt.Fprintf(&b, "  audit on:  %v virtual  (steps=%d rounds=%d lines-checked=%d findings=%d shadow=%v)\n",
		r.OnVirtual, r.On.AuditSteps, r.On.AuditRounds, r.On.AuditLinesChecked,
		r.On.AuditFindings, time.Duration(r.On.AuditDeviceNS))
	if r.OffVirtual == r.OnVirtual {
		b.WriteString("  identical virtual time: audit sweeps run off-clock, the foreground tax is zero by construction\n")
	} else {
		b.WriteString("  WARNING: virtual times diverge — the off-clock contract is broken\n")
	}
	return b.String()
}
