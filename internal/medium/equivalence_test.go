package medium

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/sim"
)

// TestPackedMatchesReference drives the packed Medium and the dense
// reference model through one seeded random operation sequence and
// requires identical results, counters, per-dot state, noise-generator
// state after every operation, and identical snapshot bytes at the
// end. Geometries cover byte-aligned rows and rows that straddle byte
// boundaries; parameter sets cover a quiet medium and one with read
// noise, residual signal and heavy thermal crosstalk.
func TestPackedMatchesReference(t *testing.T) {
	noisy := func(rows, cols int) Params {
		p := DefaultParams(rows, cols)
		p.ThermalCrosstalk = 0.2
		p.ReadNoiseSigma = 0.6 // high enough that healthy reads flip
		return p
	}
	for _, geo := range [][2]int{{6, 64}, {5, 36}, {3, 200}} {
		for name, mk := range map[string]func(int, int) Params{"quiet": quiet, "noisy": noisy} {
			for seed := uint64(1); seed <= 4; seed++ {
				p := mk(geo[0], geo[1])
				p.Seed = seed
				t.Run(fmt.Sprintf("%dx%d/%s/%d", geo[0], geo[1], name, seed), func(t *testing.T) {
					runEquivalence(t, p, seed, 1500)
				})
			}
		}
	}
}

func runEquivalence(t *testing.T, p Params, seed uint64, ops int) {
	m, ref := New(p), newRef(p)
	rng := sim.NewRNG(seed * 7919)
	n := m.Dots()
	cols := p.Cols
	// byteRun picks a byte-aligned run, often exactly one row when
	// rows are byte aligned, otherwise of random length.
	byteRun := func() (lo, nbytes int) {
		if cols%8 == 0 && rng.Intn(2) == 0 {
			r := rng.Intn(p.Rows)
			nrows := 1 + rng.Intn(2)
			if r+nrows > p.Rows {
				nrows = p.Rows - r
			}
			return r * cols, nrows * cols / 8
		}
		lo = rng.Intn(n/8) * 8
		return lo, 1 + rng.Intn((n-lo)/8)
	}
	for step := 0; step < ops; step++ {
		i := rng.Intn(n)
		var what string
		switch op := rng.Intn(100); {
		case op < 15:
			what = "MWB"
			bit := rng.Bool()
			m.MWB(i, bit)
			ref.MWB(i, bit)
		case op < 25:
			what = "MRB"
			if a, b := m.MRB(i), ref.MRB(i); a != b {
				t.Fatalf("step %d MRB(%d) %v != %v", step, i, a, b)
			}
		case op < 30:
			what = "MRBAnalog"
			if a, b := m.MRBAnalog(i), ref.MRBAnalog(i); a != b {
				t.Fatalf("step %d MRBAnalog(%d) %v != %v", step, i, a, b)
			}
		case op < 40:
			what = "EWB"
			m.EWB(i)
			ref.EWB(i)
		case op < 47:
			what = "ERB"
			if a, b := m.ERB(i), ref.ERB(i); a != b {
				t.Fatalf("step %d ERB(%d) %v != %v", step, i, a, b)
			}
		case op < 67:
			lo, nb := byteRun()
			what = fmt.Sprintf("WriteBytes(%d,%d)", lo, nb)
			img := make([]byte, nb)
			for k := range img {
				img[k] = byte(rng.Uint64())
			}
			m.WriteBytes(lo, img)
			ref.WriteBytes(lo, img)
		case op < 82:
			lo, nb := byteRun()
			what = fmt.Sprintf("ReadBytes(%d,%d)", lo, nb)
			a, b := make([]byte, nb), make([]byte, nb)
			for k := range a {
				a[k] = byte(rng.Uint64()) // stale contents must be overwritten
				b[k] = ^a[k]
			}
			m.ReadBytes(lo, a)
			ref.ReadBytes(lo, b)
			if !bytes.Equal(a, b) {
				t.Fatalf("step %d %s: %x != %x", step, what, a, b)
			}
		case op < 88:
			k := StuckKind(rng.Intn(4))
			what = fmt.Sprintf("SetStuck(%v)", k)
			m.SetStuck(i, k)
			ref.SetStuck(i, k)
		case op < 93:
			what = "CorruptMagnetic"
			m.CorruptMagnetic(i)
			ref.CorruptMagnetic(i)
		case op < 99:
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			if rng.Intn(2) == 0 { // whole rows
				lo, hi = lo/cols*cols, (hi+cols-1)/cols*cols
				if hi > n {
					hi = n
				}
			}
			what = fmt.Sprintf("ReplaceRegion(%d,%d)", lo, hi)
			m.ReplaceRegion(lo, hi)
			ref.ReplaceRegion(lo, hi)
		default:
			what = "BulkErase"
			m.BulkErase()
			ref.BulkErase()
		}
		compareState(t, fmt.Sprintf("step %d %s(%d)", step, what, i), m, ref)
	}
	if a, b := m.Snapshot(), ref.Snapshot(); !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes differ")
	}
	back, err := RestoreSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Snapshot(), m.Snapshot()) {
		t.Fatal("snapshot does not survive a restore")
	}
}

func compareState(t *testing.T, at string, m *Medium, ref *refMedium) {
	t.Helper()
	if m.Stats() != ref.stats {
		t.Fatalf("%s: stats %+v != %+v", at, m.Stats(), ref.stats)
	}
	if *m.rng != *ref.rng {
		t.Fatalf("%s: noise generator state diverged", at)
	}
	if a, b := m.HeatedCount(), ref.HeatedCount(); a != b {
		t.Fatalf("%s: heated count %d != %d", at, a, b)
	}
	for i := 0; i < m.Dots(); i++ {
		d := &ref.dots[i]
		if m.State(i) != ref.State(i) || m.Damage(i) != float64(d.damage) ||
			m.WearWrites(i) != d.wearWrites || m.Stuck(i) != d.stuck {
			t.Fatalf("%s: dot %d state %v/%v damage %v/%v wear %d/%d stuck %v/%v", at, i,
				m.State(i), ref.State(i), m.Damage(i), d.damage,
				m.WearWrites(i), d.wearWrites, m.Stuck(i), d.stuck)
		}
	}
}
