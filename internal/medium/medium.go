// Package medium simulates the patterned magnetic medium: a regular
// matrix of single-domain magnetic dots with perpendicular easy axis.
// Each dot supports the paper's four bit operations:
//
//   - mwb: magnetic write (set magnetisation up=1 / down=0)
//   - mrb: magnetic read (sense magnetisation via the MFM signal)
//   - ewb: electrical write (heat the dot, irreversibly destroying its
//     out-of-plane anisotropy — the write-once operation)
//   - erb: electrical read (detect heating via the 5-step
//     read/invert/verify/restore protocol of §3)
//
// The medium exposes an analog read signal so that the "more or less
// random result" of magnetically reading a heated dot (Fig 2) emerges
// from the physics model rather than being hard-coded.
//
// Representation: the medium stores what it models, one bit per dot.
// Magnetisation lives in a packed bit plane, MSB-first, so a byte
// aligned run of dots is exactly the byte image written to it. The
// rare per-dot state — heat damage, the in-plane sign of a heated dot,
// injected defects and per-dot wear — lives in exception records kept
// per matrix row and created only when a row first needs them; every
// other row carries a single wear counter that whole-row writes bump.
// WriteBytes and ReadBytes move a clean row as a byte copy and fall
// back to the per-dot operations wherever a heated or stuck dot, or
// read noise, makes the dot-level physics observable.
package medium

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sero/internal/physics"
	"sero/internal/sim"
)

// DotState is the observable state of a dot, matching Fig 2.
type DotState int

// Dot states per Fig 2 of the paper.
const (
	// Dot0 is a magnetised dot representing logical 0 (down).
	Dot0 DotState = iota
	// Dot1 is a magnetised dot representing logical 1 (up).
	Dot1
	// DotH is a heated dot: multilayer destroyed, easy axis in-plane.
	DotH
)

// String returns the Fig 2 label of the state.
func (s DotState) String() string {
	switch s {
	case Dot0:
		return "0"
	case Dot1:
		return "1"
	case DotH:
		return "H"
	default:
		return fmt.Sprintf("DotState(%d)", int(s))
	}
}

// Params collects the physical parameters of a medium.
type Params struct {
	// Rows, Cols give the dot-matrix geometry.
	Rows, Cols int

	// PitchNM is the dot pitch in nanometres (paper: 200 demonstrated,
	// 100 targeted for 10 Gbit/cm²).
	PitchNM float64

	// SignalAmplitude is the noiseless MFM read amplitude of a healthy
	// dot (arbitrary units; the decode threshold is derived from it).
	SignalAmplitude float64

	// ReadNoiseSigma is the RMS additive noise per read sample.
	ReadNoiseSigma float64

	// ResidualInPlaneSignal is the tiny out-of-plane component a heated
	// dot still couples into the reader (ideally 0; non-zero values
	// stress the erb protocol — experiment E7).
	ResidualInPlaneSignal float64

	// ThermalCrosstalk is the probability that heating a dot disturbs
	// the *magnetisation* of an immediate neighbour (paper §7:
	// "the magnetic state ... of the adjacent dot could be affected").
	ThermalCrosstalk float64

	// PulseTempC is the peak temperature one electrical-write pulse
	// raises the target dot to. The default 900 °C/50 µs pulse is
	// ~2.5 relaxation times, destroying the dot in one shot; with the
	// substrate acting as a heat sink (§7), neighbours see only
	// NeighborTempFactor of it.
	PulseTempC float64

	// PulseSeconds is the pulse dwell time.
	PulseSeconds float64

	// NeighborTempFactor attenuates the pulse temperature at the four
	// nearest neighbours (0 disables neighbour heating entirely).
	NeighborTempFactor float64

	// Seed seeds the medium's noise generator.
	Seed uint64
}

// DefaultParams returns parameters for a healthy 100 nm-pitch medium
// with a 20:1 signal-to-noise ratio and 1 % thermal crosstalk.
func DefaultParams(rows, cols int) Params {
	return Params{
		Rows:                  rows,
		Cols:                  cols,
		PitchNM:               100,
		SignalAmplitude:       1.0,
		ReadNoiseSigma:        0.05,
		ResidualInPlaneSignal: 0.02,
		ThermalCrosstalk:      0.01,
		PulseTempC:            900,
		PulseSeconds:          50e-6,
		NeighborTempFactor:    0.4,
		Seed:                  1,
	}
}

// Medium is a simulated patterned medium. Bit operations on disjoint
// matrix rows may run concurrently when rows are whole bytes of the bit
// plane (Cols a multiple of 8, as in the device geometry): the
// operation counters are atomic and the noise generator is internally
// locked. Operations touching the *same* row must still be serialised
// by the caller — the device layer maps one block to one row, and its
// region locks enforce that (extending write locks over the
// thermal-crosstalk neighbourhood of electrical writes).
type Medium struct {
	p Params
	n int // dots

	// bits holds the magnetisation of dot i (1 = up) in bit 7-i%8 of
	// bits[i/8]. A heated dot keeps the bit it had when it was heated.
	bits []byte
	// rows holds the per-row state beside the bit plane.
	rows []row

	// rngMu guards rng: noise draws come from one deterministic
	// stream regardless of which region is being read.
	rngMu sync.Mutex
	rng   *sim.RNG

	// Counters for experiments, atomically updated.
	stats atomicStats
}

// row is the state of one matrix row beyond its magnetisation.
type row struct {
	// wear counts the writes that covered the whole row; a dot's wear
	// is this plus its entry in ex.wear.
	wear uint32
	// ex is nil while no dot of the row carries per-dot state.
	ex *rowEx
}

// rowEx is the exception record of a row. Each slice has one entry
// per column and stays nil until a dot of the row first needs it.
type rowEx struct {
	// damage is the accumulated interface-mixing fraction from heat
	// pulses, in [0,1]. A dot is heated (state H) once damage reaches
	// physics.HeatedDamageThreshold: the surviving interface
	// anisotropy no longer beats the shape anisotropy. Monotone:
	// mixing is irreversible.
	damage []float32
	// sign is the random in-plane orientation (±1) the magnetisation
	// fell into when the dot was heated; it biases the residual read
	// signal of a damaged dot.
	sign []int8
	// stuck holds injected defects (see faults.go).
	stuck []StuckKind
	// wear counts single-dot writes on top of row.wear.
	wear dotWear
	// heated and defects count the row's heated and stuck dots; while
	// both are zero the row's bytes are its read image.
	heated, defects int
}

// Stats counts low-level operations performed on a medium.
type Stats struct {
	MagneticReads  uint64
	MagneticWrites uint64
	ElectricWrites uint64
	CrosstalkFlips uint64
}

// atomicStats is the lock-free internal representation of Stats.
type atomicStats struct {
	magneticReads  atomic.Uint64
	magneticWrites atomic.Uint64
	electricWrites atomic.Uint64
	crosstalkFlips atomic.Uint64
}

// New creates a medium with the given parameters. It panics on
// non-positive geometry: media sizes are static configuration, so a bad
// size is a programming error, not a runtime condition.
func New(p Params) *Medium {
	if p.Rows <= 0 || p.Cols <= 0 {
		panic(fmt.Sprintf("medium: invalid geometry %dx%d", p.Rows, p.Cols))
	}
	if p.SignalAmplitude <= 0 {
		panic("medium: non-positive signal amplitude")
	}
	n := p.Rows * p.Cols
	return &Medium{
		p:    p,
		n:    n,
		bits: make([]byte, (n+7)/8),
		rows: make([]row, p.Rows),
		rng:  sim.NewRNG(p.Seed),
	}
}

// Params returns the medium's parameters.
func (m *Medium) Params() Params { return m.p }

// Dots returns the total number of dots.
func (m *Medium) Dots() int { return m.n }

// Stats returns a copy of the operation counters.
func (m *Medium) Stats() Stats {
	return Stats{
		MagneticReads:  m.stats.magneticReads.Load(),
		MagneticWrites: m.stats.magneticWrites.Load(),
		ElectricWrites: m.stats.electricWrites.Load(),
		CrosstalkFlips: m.stats.crosstalkFlips.Load(),
	}
}

// ResetStats zeroes the operation counters.
func (m *Medium) ResetStats() {
	m.stats.magneticReads.Store(0)
	m.stats.magneticWrites.Store(0)
	m.stats.electricWrites.Store(0)
	m.stats.crosstalkFlips.Store(0)
}

// CapacityBits returns the usable bit capacity (one bit per dot).
func (m *Medium) CapacityBits() int { return m.n }

// AreaCM2 returns the medium area in cm², from the dot pitch.
func (m *Medium) AreaCM2() float64 {
	pitchCM := m.p.PitchNM * 1e-7
	return float64(m.p.Rows) * float64(m.p.Cols) * pitchCM * pitchCM
}

// DensityGbitPerCM2 returns the areal density in Gbit/cm². With the
// 100 nm pitch of the paper this is 10 Gbit/cm².
func (m *Medium) DensityGbitPerCM2() float64 {
	return float64(m.CapacityBits()) / m.AreaCM2() / 1e9
}

// Index converts a (row, col) dot coordinate to the linear index used
// by the bit operations. It panics on out-of-matrix coordinates.
func (m *Medium) Index(row, col int) int {
	if row < 0 || row >= m.p.Rows || col < 0 || col >= m.p.Cols {
		panic(fmt.Sprintf("medium: dot (%d,%d) outside %dx%d matrix",
			row, col, m.p.Rows, m.p.Cols))
	}
	return row*m.p.Cols + col
}

// loc returns the row record and column of dot i (row-major linear
// index). It panics on an index outside the medium.
func (m *Medium) loc(i int) (*row, int) {
	if uint(i) >= uint(m.n) {
		panic(fmt.Sprintf("medium: dot %d outside %d dots", i, m.n))
	}
	r := i / m.p.Cols
	return &m.rows[r], i - r*m.p.Cols
}

// up returns the magnetisation bit of dot i.
func (m *Medium) up(i int) bool { return m.bits[i>>3]&(0x80>>(i&7)) != 0 }

// setUp sets the magnetisation bit of dot i.
func (m *Medium) setUp(i int, v bool) {
	if v {
		m.bits[i>>3] |= 0x80 >> (i & 7)
	} else {
		m.bits[i>>3] &^= 0x80 >> (i & 7)
	}
}

// exc returns the row's exception record, creating it.
func (r *row) exc() *rowEx {
	if r.ex == nil {
		r.ex = &rowEx{}
	}
	return r.ex
}

// clean reports whether the row has no heated and no stuck dot: its
// bytes in the bit plane are then exactly what a noiseless read sees.
func (r *row) clean() bool { return r.ex == nil || r.ex.heated == 0 && r.ex.defects == 0 }

// damageAt returns the damage of column c.
func (r *row) damageAt(c int) float32 {
	if r.ex == nil || r.ex.damage == nil {
		return 0
	}
	return r.ex.damage[c]
}

// heatedAt reports whether the dot at column c is heated.
func (r *row) heatedAt(c int) bool { return isHeated(r.damageAt(c)) }

// isHeated reports whether damage has destroyed a dot's multilayer.
func isHeated(damage float32) bool {
	return float64(damage) >= physics.HeatedDamageThreshold
}

// signAt returns the in-plane sign of the dot at column c.
func (r *row) signAt(c int) int8 {
	if r.ex == nil || r.ex.sign == nil {
		return 0
	}
	return r.ex.sign[c]
}

// stuckAt returns the defect of the dot at column c.
func (r *row) stuckAt(c int) StuckKind {
	if r.ex == nil || r.ex.stuck == nil {
		return StuckNone
	}
	return r.ex.stuck[c]
}

// wearAt returns the magnetic writes the dot at column c received.
func (r *row) wearAt(c int) uint32 {
	if r.ex == nil {
		return r.wear
	}
	return r.wear + r.ex.wear.at(c)
}

// dotWear is the single-dot wear of a row's dots. ERB and the
// heated-block probe write a few sampled dots of many rows, so the
// counts are kept as column/count pairs sorted by column until more
// than an eighth of the row has one, and as one count per column
// after that.
type dotWear struct {
	sparse []wearEntry
	dense  []uint32
}

// wearEntry is one column's count in the sparse form.
type wearEntry struct{ col, n uint32 }

// at returns the single-dot wear of column c.
func (w *dotWear) at(c int) uint32 {
	if w.dense != nil {
		return w.dense[c]
	}
	if k, ok := w.find(c); ok {
		return w.sparse[k].n
	}
	return 0
}

// find returns the position of column c in the sparse form, or where
// it would be inserted. Single-dot writes mostly walk a row in column
// order (an ERS pass, the heated-block probe's samples), so the last
// entry is tried first.
func (w *dotWear) find(c int) (int, bool) {
	if n := len(w.sparse); n == 0 || w.sparse[n-1].col < uint32(c) {
		return n, false
	} else if w.sparse[n-1].col == uint32(c) {
		return n - 1, true
	}
	return slices.BinarySearchFunc(w.sparse, uint32(c), func(e wearEntry, c uint32) int {
		return cmp.Compare(e.col, c)
	})
}

// slot returns the count of column c of a cols-wide row, creating it.
func (w *dotWear) slot(c, cols int) *uint32 {
	if w.dense != nil {
		return &w.dense[c]
	}
	k, ok := w.find(c)
	if !ok {
		if len(w.sparse) >= cols/8 {
			w.dense = make([]uint32, cols)
			for _, e := range w.sparse {
				w.dense[e.col] = e.n
			}
			w.sparse = nil
			return &w.dense[c]
		}
		w.sparse = slices.Insert(w.sparse, k, wearEntry{col: uint32(c)})
	}
	return &w.sparse[k].n
}

// wearSlot returns the single-dot wear count of column c, creating it.
func (r *row) wearSlot(c, cols int) *uint32 { return r.exc().wear.slot(c, cols) }

// State returns the true physical state of dot i. This is an oracle for
// tests and the forensics tooling ("a forensics team would probably
// have no difficulty identifying a reconstructed dot", §8); the device
// layer never uses it.
func (m *Medium) State(i int) DotState {
	r, c := m.loc(i)
	switch {
	case r.heatedAt(c):
		return DotH
	case m.up(i):
		return Dot1
	default:
		return Dot0
	}
}

// signal produces the noiseless analog MFM read signal of dot i: full
// amplitude for a healthy dot, residual leakage for a heated one (the
// disappearing peak of Fig 1).
func (m *Medium) signal(i int) float64 {
	r, c := m.loc(i)
	switch r.stuckAt(c) {
	case StuckUp:
		return m.p.SignalAmplitude
	case StuckDown:
		return -m.p.SignalAmplitude
	case StuckDead:
		return 0
	}
	switch {
	case r.heatedAt(c):
		return m.p.ResidualInPlaneSignal * float64(r.signAt(c))
	case m.up(i):
		return m.p.SignalAmplitude
	default:
		return -m.p.SignalAmplitude
	}
}

// readSignal is signal plus one draw of read noise.
func (m *Medium) readSignal(i int) float64 {
	s := m.signal(i)
	if m.p.ReadNoiseSigma > 0 {
		m.rngMu.Lock()
		s += m.p.ReadNoiseSigma * m.rng.NormFloat64()
		m.rngMu.Unlock()
	}
	return s
}

// MRB performs a magnetic read of dot i, returning the decoded bit.
// For a heated dot the decoded value is noise-driven and therefore "more
// or less random" (Fig 2): callers that need to detect heating must use
// ERB instead — that is the device protocol the paper mandates.
func (m *Medium) MRB(i int) bool {
	m.stats.magneticReads.Add(1)
	return m.readSignal(i) >= 0
}

// MRBAnalog performs a magnetic read returning the raw analog signal.
// Used by the read-channel diagnostics and by tests asserting the
// Fig 1 peak behaviour.
func (m *Medium) MRBAnalog(i int) float64 {
	m.stats.magneticReads.Add(1)
	return m.readSignal(i)
}

// MWB performs a magnetic write of dot i. Writing a heated dot has no
// effect on the stored information: the dot has no out-of-plane
// remanence left (§5.1 "Changing the magnetisation of an electrically
// written bit ... has no effect").
func (m *Medium) MWB(i int, bit bool) {
	m.stats.magneticWrites.Add(1)
	m.mwb(i, bit)
}

// mwb is MWB without the operation counter.
func (m *Medium) mwb(i int, bit bool) {
	r, c := m.loc(i)
	*r.wearSlot(c, m.p.Cols)++
	if r.heatedAt(c) {
		return
	}
	m.setUp(i, bit)
}

// checkRun validates a byte-aligned run of n dots from lo.
func (m *Medium) checkRun(op string, lo, n int) {
	if lo < 0 || lo%8 != 0 || n > m.n-lo {
		panic(fmt.Sprintf("medium: %s of %d dots at %d outside %d dots or not byte aligned",
			op, n, lo, m.n))
	}
}

// WriteBytes magnetically writes the 8·len(img) dots from lo, which
// must be a multiple of 8: dot lo+k takes bit 7-k%8 of img[k/8]
// (MSB-first). The effect on the medium is exactly that of MWB on each
// dot in order. A row without heated dots is written as a byte copy,
// and a write that covers a whole row counts its wear once per row.
func (m *Medium) WriteBytes(lo int, img []byte) {
	n := len(img) * 8
	m.checkRun("write", lo, n)
	m.stats.magneticWrites.Add(uint64(n))
	cols := m.p.Cols
	for i, end := lo, lo+n; i < end; {
		r := &m.rows[i/cols]
		rowLo := i / cols * cols
		segEnd := min(rowLo+cols, end)
		if r.ex != nil && r.ex.heated > 0 || i%8 != 0 || segEnd%8 != 0 {
			for ; i < segEnd; i++ {
				k := i - lo
				m.mwb(i, img[k>>3]&(0x80>>(k&7)) != 0)
			}
			continue
		}
		copy(m.bits[i/8:segEnd/8], img[(i-lo)/8:])
		if i == rowLo && segEnd == rowLo+cols {
			r.wear++
		} else {
			for c := i - rowLo; c < segEnd-rowLo; c++ {
				*r.wearSlot(c, cols)++
			}
		}
		i = segEnd
	}
}

// ReadBytes magnetically reads the 8·len(dst) dots from lo, which must
// be a multiple of 8, into dst (MSB-first, the layout WriteBytes
// takes). The result, the counters and the noise draws are exactly
// those of MRB on each dot in order. Without read noise a row with no
// heated and no stuck dot is read as a byte copy; otherwise the dots
// are read one by one, with the noise generator locked once for the
// whole call.
func (m *Medium) ReadBytes(lo int, dst []byte) {
	n := len(dst) * 8
	m.checkRun("read", lo, n)
	m.stats.magneticReads.Add(uint64(n))
	if m.p.ReadNoiseSigma > 0 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
	}
	cols := m.p.Cols
	for i, end := lo, lo+n; i < end; {
		r := &m.rows[i/cols]
		segEnd := min(i/cols*cols+cols, end)
		if m.p.ReadNoiseSigma == 0 && r.clean() && i%8 == 0 && segEnd%8 == 0 {
			copy(dst[(i-lo)/8:], m.bits[i/8:segEnd/8])
			i = segEnd
			continue
		}
		for ; i < segEnd; i++ {
			s := m.signal(i)
			if m.p.ReadNoiseSigma > 0 {
				s += m.p.ReadNoiseSigma * m.rng.NormFloat64()
			}
			k := i - lo
			if s >= 0 {
				dst[k>>3] |= 0x80 >> (k & 7)
			} else {
				dst[k>>3] &^= 0x80 >> (k & 7)
			}
		}
	}
}

// EWB performs the electrical write (heating) of dot i: one probe
// current pulse at the medium's configured pulse temperature and
// duration. Interface mixing accumulates per the annealing physics
// (physics.PulseMixing); with the default 900 °C/20 µs pulse a single
// EWB destroys the dot irreversibly (state H). Weak pulses damage the
// dot only partially — experiment E10 sweeps that design space.
// Heating an already-heated dot is a no-op on the stored information.
//
// Neighbours receive an attenuated pulse (NeighborTempFactor of the
// absolute pulse temperature), accumulating their own damage, and
// with probability ThermalCrosstalk their *magnetisation* is disturbed
// by the heat spill (§7: "the magnetic state, or even the
// write-ability of the adjacent dot could be affected").
func (m *Medium) EWB(i int) {
	m.stats.electricWrites.Add(1)
	m.pulse(i, m.p.PulseTempC)

	row, col := i/m.p.Cols, i%m.p.Cols
	for _, delta := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := row+delta[0], col+delta[1]
		if nr < 0 || nr >= m.p.Rows || nc < 0 || nc >= m.p.Cols {
			continue
		}
		n := nr*m.p.Cols + nc
		if m.p.NeighborTempFactor > 0 {
			m.pulse(n, m.p.PulseTempC*m.p.NeighborTempFactor)
		}
		if m.p.ThermalCrosstalk > 0 && m.randFloat() < m.p.ThermalCrosstalk {
			if r, c := m.loc(n); !r.heatedAt(c) {
				m.setUp(n, !m.up(n))
				m.stats.crosstalkFlips.Add(1)
			}
		}
	}
}

// randFloat draws from the shared noise stream under the rng lock.
func (m *Medium) randFloat() float64 {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Float64()
}

// randBool draws from the shared noise stream under the rng lock.
func (m *Medium) randBool() bool {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Bool()
}

// pulse applies one heat pulse at tempC to dot i, accumulating
// interface-mixing damage. Crossing the destruction threshold fixes
// the in-plane orientation the magnetisation falls into.
func (m *Medium) pulse(i int, tempC float64) {
	r, c := m.loc(i)
	cur := r.damageAt(c)
	if isHeated(cur) {
		return
	}
	next := physics.PulseDamage(tempC, m.p.PulseSeconds, float64(cur))
	if next <= float64(cur) {
		return
	}
	ex := r.exc()
	if ex.damage == nil {
		ex.damage = make([]float32, m.p.Cols)
	}
	ex.damage[c] = float32(next)
	if isHeated(ex.damage[c]) {
		ex.heated++
		if ex.sign == nil {
			ex.sign = make([]int8, m.p.Cols)
		}
		if m.randBool() {
			ex.sign[c] = 1
		} else {
			ex.sign[c] = -1
		}
	}
}

// Damage returns the accumulated interface-mixing fraction of dot i.
func (m *Medium) Damage(i int) float64 {
	r, c := m.loc(i)
	return float64(r.damageAt(c))
}

// ERB performs the electrical read of dot i using the paper's exact
// 5-step protocol (§3): read, write inverse, verify inverse, write
// original back, verify original. If either verification fails the dot
// has lost its out-of-plane property and ERB reports heated=true.
// For un-heated dots the two inversions restore the original data.
//
// The protocol costs 3 magnetic reads and 2 magnetic writes, which is
// why the paper calls erb "at least 5 times slower than mrb"; the
// device layer charges latency accordingly.
func (m *Medium) ERB(i int) (heated bool) {
	orig := m.MRB(i)  // 1. read the original bit
	m.MWB(i, !orig)   // 2. write the inverse
	inv := m.MRB(i)   // 3. verify the inverse reads back
	m.MWB(i, orig)    // 4. restore the original
	again := m.MRB(i) // 5. verify the original reads back
	if inv == orig || again != orig {
		return true
	}
	return false
}

// WearWrites returns the number of magnetic writes dot i has received.
func (m *Medium) WearWrites(i int) uint32 {
	r, c := m.loc(i)
	return r.wearAt(c)
}

// HeatedCount returns the number of heated dots — the RO fraction of
// the medium grows monotonically over its life (§8 "the read/write area
// gradually shrinks").
func (m *Medium) HeatedCount() int {
	n := 0
	for i := range m.rows {
		if ex := m.rows[i].ex; ex != nil {
			n += ex.heated
		}
	}
	return n
}

// BulkErase simulates a degausser pass (§5.2 availability analysis):
// all magnetic information is randomised, but heated dots remain heated
// — the electrically written evidence survives.
func (m *Medium) BulkErase() {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	for i := 0; i < m.n; i++ {
		if r, c := m.loc(i); !r.heatedAt(c) {
			m.setUp(i, m.rng.Bool())
		}
	}
}
