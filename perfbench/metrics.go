package main

import (
	"fmt"
	"sort"
	"strings"
)

// value is one named measurement of one episode. det marks figures
// that depend only on the seed and the code — virtual time and counts —
// and must therefore repeat exactly across episodes and between
// untraced and traced episodes.
type value struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	Det  bool    `json:"det,omitempty"`
	V    float64 `json:"v"`
}

type values []value

func (vs *values) add(name, unit string, det bool, v float64) {
	*vs = append(*vs, value{name, unit, det, v})
}

func usNS(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the bounded end-to-end metrics of one episode, except
// the per-op host rates, which the run takes over the windows and the
// pooled ops of all its episodes (see hostRates). Each episode runs in
// its own process, so the process's peak RSS is the episode's.
func endToEnd(e *episode) values {
	c := e.c
	ops := float64(c.measuredOps)
	var vs values
	vs.add("setup_s", "s", false, e.setup.Seconds())
	vs.add("peak_rss_mb", "MB", false, peakRSSMB())
	vs.add("virt_ops_per_s", "1/s", true, ratio(ops, e.virt.Seconds()))
	vs.add("write_amp", "ratio", true, ratio(float64(e.ops1.MagneticWrites-e.ops0.MagneticWrites), float64(c.userBlocks)))
	return vs
}

// virtLatency summarises the measured virtual latency of one op kind:
// p50 always, p99 only when at least ten samples lie beyond it.
func virtLatency(vs *values, prefix string, samples []int64, p99 bool) {
	s := append([]int64(nil), samples...)
	vs.add(prefix+".virt_p50_us", "us", true, usNS(percentile(s, 0.50)))
	if p99 {
		v := 0.0
		if len(s) >= p99Samples {
			v = usNS(percentile(s, 0.99))
		}
		vs.add(prefix+".virt_p99_us", "us", true, v)
	}
}

// verifyVirtPerLine is the virtual device time per heated line
// verified: the on-clock VerifyLines pass plus the auditor's shadow
// device time, over the lines both checked.
func verifyVirtPerLine(e *episode) float64 {
	lines := float64(e.verifyLines) + float64(e.lfs1.AuditLinesChecked-e.lfs0.AuditLinesChecked)
	ns := float64(e.verifyVirt) + float64(e.lfs1.AuditDeviceNS-e.lfs0.AuditDeviceNS)
	return ratio(ns/1e3, lines)
}

// perLayer are the per-layer metrics of one traced episode.
func perLayer(e *episode) values {
	c := e.c
	tot := e.rec.totals()
	get := func(name string) *layerTotals {
		if t := tot[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	var vs values

	vs.add("workload.generate_ms", "ms", false, float64(e.generate)/1e6)

	// lfs: every public method the client called.
	for _, m := range lfsMethods {
		t := get("lfs." + m)
		vs.add("lfs."+m+".calls", "count", true, float64(t.calls))
		vs.add("lfs."+m+".host_self_us", "us", false, usNS(t.hostNS-t.childNS))
		vs.add("lfs."+m+".virt_us", "us", true, usNS(t.virtNS))
	}
	for i, n := range syncClassNames {
		vs.add("lfs."+n+".calls", "count", true, float64(c.syncCalls[i]))
		vs.add("lfs."+n+".virt_us", "us", true, usNS(c.syncVirt[i]))
	}
	l0, l1 := e.lfs0, e.lfs1
	syncs := float64(l1.Syncs - l0.Syncs)
	copied := float64(l1.CleanerCopied - l0.CleanerCopied)
	stale := float64(l1.CleanerStaleMoves - l0.CleanerStaleMoves)
	vs.add("lfs.reanchor_ratio", "ratio", true, ratio(float64(l1.JournalReanchors-l0.JournalReanchors), syncs))
	vs.add("lfs.checkpoint_fallbacks", "count", true, float64(l1.CheckpointFallbacks-l0.CheckpointFallbacks))
	vs.add("lfs.cleaner_passes", "count", true, float64(l1.CleanerPasses-l0.CleanerPasses))
	vs.add("lfs.cleaner_copied", "count", true, copied)
	vs.add("lfs.cleaner_stale_ratio", "ratio", true, ratio(stale, copied+stale))
	vs.add("lfs.live_fill", "ratio", true, e.liveFill)
	virtLatency(&vs, "lfs.read", c.virtNS[kRead], true)
	virtLatency(&vs, "lfs.sync", c.virtNS[kSync], true)
	virtLatency(&vs, "lfs.heat", c.virtNS[kHeat], false)

	// core: the incremental auditor behind FS.AuditStep.
	lines := float64(l1.AuditLinesChecked - l0.AuditLinesChecked)
	vs.add("core.audit.lines_checked", "count", true, lines)
	vs.add("core.audit.host_us_per_line", "us", false, ratio(usNS(get("lfs."+kAudit).hostNS), lines))
	vs.add("core.audit.rounds", "count", true, float64(l1.AuditRounds-l0.AuditRounds))
	vs.add("core.audit.findings", "count", true, float64(l1.AuditFindings-l0.AuditFindings))
	vs.add("core.audit.piggyback_hits", "count", true, float64(l1.AuditPiggybacked-l0.AuditPiggybacked))
	vs.add("core.audit.detect_steps", "count", true, float64(e.detectSteps))
	vs.add("core.audit.bound_steps", "count", true, float64(e.boundSteps))

	// device: the decorator's spans plus the OpStats deltas.
	for _, m := range deviceMethods {
		t := get("device." + m)
		vs.add("device."+m+".calls", "count", true, float64(t.calls))
		vs.add("device."+m+".host_us", "us", false, usNS(t.hostNS))
		vs.add("device."+m+".virt_us", "us", true, usNS(t.virtNS))
	}
	perBlock := func(methods ...string) float64 {
		var ns, blocks int64
		for _, m := range methods {
			t := get("device." + m)
			ns += t.hostNS
			blocks += t.blocks
		}
		return ratio(float64(ns), float64(blocks))
	}
	vs.add("device.host_ns_per_block_written", "ns", false, perBlock("write_blocks", "write_runs_fanned", "write_line_batch"))
	vs.add("device.host_ns_per_block_read", "ns", false, perBlock("mrs", "read_blocks_fanned"))
	o0, o1 := e.ops0, e.ops1
	vs.add("device.magnetic_reads", "count", true, float64(o1.MagneticReads-o0.MagneticReads))
	vs.add("device.magnetic_writes", "count", true, float64(o1.MagneticWrites-o0.MagneticWrites))
	vs.add("device.electric_writes", "count", true, float64(o1.ElectricWrites-o0.ElectricWrites))
	vs.add("device.corrected_bytes", "count", true, float64(o1.CorrectedBytes-o0.CorrectedBytes))
	vs.add("device.verify_virt_us_per_line", "us", true, verifyVirtPerLine(e))

	vs.add("medium.new_ms", "ms", false, float64(e.mediumNew)/1e6)
	vs.add("medium.rss_mb_after_setup", "MB", false, e.rssSetupMB)

	// array: zero on the raw-device workloads.
	var writes []float64
	var sum, most float64
	for i := range e.mw1 {
		w := float64(e.mw1[i] - e.mw0[i])
		writes = append(writes, w)
		sum += w
		if w > most {
			most = w
		}
	}
	parity := float64(e.arr1.ParityBlockWrites - e.arr0.ParityBlockWrites)
	vs.add("array.parity_writes_per_data_write", "ratio", true, ratio(parity, sum-parity))
	vs.add("array.member_write_imbalance", "ratio", true, ratio(most, sum/float64(len(writes))))
	vs.add("array.member_lag_us_max", "us", true, usNS(c.lagMaxNS))
	vs.add("array.member_lag_us_mean", "us", true, ratio(c.lagSumNS/1e3, float64(c.lagN)))
	vs.add("array.zero_virt_read_share", "ratio", true, zeroVirtReadShare(e.rec))
	vs.add("array.degraded_reads", "count", true, float64(e.arr1.DegradedReads-e.arr0.DegradedReads))

	vs.add("host.gc_cycles", "count", false, float64(e.m.gcs))
	vs.add("host.gc_pause_ms", "ms", false, float64(e.m.pauseNS)/1e6)
	return vs
}

// zeroVirtReadShare is the share of lfs reads that went to the device
// but advanced the shared clock by nothing — reads served by an array
// member whose clock lagged the array's.
func zeroVirtReadShare(r *recorder) float64 {
	read := clientSpan[kRead]
	touched := make(map[int32]bool)
	for _, s := range r.spans {
		if s.parent >= 0 && r.spans[s.parent].name == read && (s.name == spMRS || s.name == spReadFanned) {
			touched[s.parent] = true
		}
	}
	zero := 0
	for i := range touched {
		if s := r.spans[i]; s.vend == s.vstart {
			zero++
		}
	}
	return ratio(float64(zero), float64(len(touched)))
}

// reportOnly are end-to-end figures printed in the report but not
// bounded in BENCHMARK.json: each is absent (or zero) on some workload,
// so no bound can hold on all of them.
func reportOnly(e *episode) values {
	c := e.c
	var vs values
	for _, k := range []string{kRead, kSync, kHeat} {
		virtLatency(&vs, k, c.virtNS[k], k != kHeat)
		vs.add(k+".samples", "count", true, float64(len(c.virtNS[k])))
	}
	vs.add("verify_virt_us_per_line", "us", true, verifyVirtPerLine(e))
	vs.add("error_ratio", "ratio", true, ratio(float64(c.failed), float64(c.attempted)))
	return vs
}

// fingerprint renders every seed-determined figure of an episode:
// virtual time per op kind, the lfs, device and array counters before
// and after the measured phase. Episodes of one seed must agree on it.
func fingerprint(e *episode) string {
	c := e.c
	var b strings.Builder
	kinds := make([]string, 0, len(c.virtNS))
	for k := range c.virtNS {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		var sum int64
		for _, v := range c.virtNS[k] {
			sum += v
		}
		fmt.Fprintf(&b, "%s:%d/%d ", k, len(c.virtNS[k]), sum)
	}
	fmt.Fprintf(&b, "virt=%d ops=%d user=%d fill=%v detect=%d\n", e.virt, c.measuredOps, c.userBlocks, e.liveFill, e.detectSteps)
	fmt.Fprintf(&b, "%+v\n%+v\n%+v\n%+v\n%+v\n%+v\n%v %v", e.lfs0, e.lfs1, e.ops0, e.ops1, e.arr0, e.arr1, e.mw0, e.mw1)
	return b.String()
}
