package medium

import "fmt"

// Fault injection. Real patterned media have defective dots (missing,
// merged, or pinned); the device layer's ECC and bad-block handling
// must cope, and crucially must distinguish a *bad* block from a
// *heated* one (§3 "a heated block should not be misinterpreted as a
// bad block"). Tests drive these hooks.

// StuckKind describes a dot defect.
type StuckKind int8

// Defect kinds.
const (
	// StuckNone marks a healthy dot.
	StuckNone StuckKind = iota
	// StuckUp pins the read signal at +amplitude regardless of writes.
	StuckUp
	// StuckDown pins the read signal at -amplitude.
	StuckDown
	// StuckDead makes the dot produce no signal at all (missing dot),
	// indistinguishable from a heated dot at read time — the hard case
	// for bad-block discrimination.
	StuckDead
)

// SetStuck injects a defect into dot i. Passing StuckNone clears it.
func (m *Medium) SetStuck(i int, k StuckKind) {
	switch k {
	case StuckNone, StuckUp, StuckDown, StuckDead:
	default:
		panic(fmt.Sprintf("medium: unknown stuck kind %d", int(k)))
	}
	r, c := m.loc(i)
	old := r.stuckAt(c)
	if old == k {
		return
	}
	ex := r.exc()
	if ex.stuck == nil {
		ex.stuck = make([]StuckKind, m.p.Cols)
	}
	ex.stuck[c] = k
	switch {
	case old == StuckNone:
		ex.defects++
	case k == StuckNone:
		ex.defects--
	}
}

// Stuck returns the defect status of dot i.
func (m *Medium) Stuck(i int) StuckKind {
	r, c := m.loc(i)
	return r.stuckAt(c)
}

// CorruptMagnetic flips the magnetisation of dot i directly, bypassing
// the write path. Models media decay or an attacker with a raw write
// head. No effect on heated dots (nothing to flip).
func (m *Medium) CorruptMagnetic(i int) {
	if r, c := m.loc(i); !r.heatedAt(c) {
		m.setUp(i, !m.up(i))
	}
}

// ReplaceRegion swaps factory-fresh dots into [lo, hi): pristine
// magnetisation, no damage, no defects, zero wear. This is the
// physical substrate of sled repair — patterned media are manufactured
// as regular matrices, so a service action can splice in a spare
// region (or a whole spare sled) where dots were destroyed. Heating is
// still irreversible on any given dot; replacement swaps the dots
// themselves, which is exactly as loud as the paper's threat model
// demands (the old region's evidence is gone *with the old dots*, so
// honest repair must re-establish the heat records on the new region,
// and does — see the device's ReplaceLine).
//
// A row the region covers whole drops its exception record; a row it
// covers in part keeps one, and reads and writes of that row take the
// byte path again once none of its remaining dots is heated or stuck.
func (m *Medium) ReplaceRegion(lo, hi int) {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("medium: replace region [%d,%d) outside %d dots", lo, hi, m.n))
	}
	cols := m.p.Cols
	for i := lo; i < hi; {
		r := &m.rows[i/cols]
		rowLo := i / cols * cols
		segEnd := min(rowLo+cols, hi)
		for j := i; j < segEnd; j++ {
			m.setUp(j, false)
		}
		if i == rowLo && segEnd == rowLo+cols {
			*r = row{}
			i = segEnd
			continue
		}
		for ; i < segEnd; i++ {
			c := i - rowLo
			if r.heatedAt(c) {
				r.ex.heated--
			}
			if r.stuckAt(c) != StuckNone {
				r.ex.defects--
			}
			if r.ex != nil {
				if r.ex.damage != nil {
					r.ex.damage[c] = 0
				}
				if r.ex.sign != nil {
					r.ex.sign[c] = 0
				}
				if r.ex.stuck != nil {
					r.ex.stuck[c] = StuckNone
				}
			}
			if r.wearAt(c) != 0 {
				// Zero the dot's wear against the row's base count.
				*r.wearSlot(c, cols) = -r.wear
			}
		}
	}
}
