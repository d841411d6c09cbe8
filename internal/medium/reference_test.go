package medium

import (
	"encoding/binary"
	"math"
	"sync"

	"sero/internal/physics"
	"sero/internal/sim"
)

// refMedium is the dense reference model the packed Medium replaced:
// one 12-byte record per dot, every operation dot by dot. The
// equivalence tests drive both through the same operations and demand
// identical observable behaviour, noise draws included.
type refMedium struct {
	p     Params
	dots  []refDot
	rngMu sync.Mutex
	rng   *sim.RNG
	stats Stats
}

type refDot struct {
	up          bool
	inPlaneSign int8
	stuck       StuckKind
	damage      float32
	wearWrites  uint32
}

func (d *refDot) heated() bool {
	return float64(d.damage) >= physics.HeatedDamageThreshold
}

func newRef(p Params) *refMedium {
	return &refMedium{p: p, dots: make([]refDot, p.Rows*p.Cols), rng: sim.NewRNG(p.Seed)}
}

func (m *refMedium) State(i int) DotState {
	d := &m.dots[i]
	switch {
	case d.heated():
		return DotH
	case d.up:
		return Dot1
	default:
		return Dot0
	}
}

func (m *refMedium) readSignal(i int) float64 {
	d := &m.dots[i]
	var s float64
	switch {
	case d.stuck == StuckUp:
		s = m.p.SignalAmplitude
	case d.stuck == StuckDown:
		s = -m.p.SignalAmplitude
	case d.stuck == StuckDead:
		s = 0
	case d.heated():
		s = m.p.ResidualInPlaneSignal * float64(d.inPlaneSign)
	case d.up:
		s = m.p.SignalAmplitude
	default:
		s = -m.p.SignalAmplitude
	}
	if m.p.ReadNoiseSigma > 0 {
		m.rngMu.Lock()
		s += m.p.ReadNoiseSigma * m.rng.NormFloat64()
		m.rngMu.Unlock()
	}
	return s
}

func (m *refMedium) MRB(i int) bool {
	m.stats.MagneticReads++
	return m.readSignal(i) >= 0
}

func (m *refMedium) MRBAnalog(i int) float64 {
	m.stats.MagneticReads++
	return m.readSignal(i)
}

func (m *refMedium) MWB(i int, bit bool) {
	m.stats.MagneticWrites++
	d := &m.dots[i]
	d.wearWrites++
	if d.heated() {
		return
	}
	d.up = bit
}

// WriteBytes and ReadBytes are the per-dot definitions the packed
// byte paths must match.
func (m *refMedium) WriteBytes(lo int, img []byte) {
	for k := 0; k < len(img)*8; k++ {
		m.MWB(lo+k, img[k/8]&(0x80>>(k%8)) != 0)
	}
}

func (m *refMedium) ReadBytes(lo int, dst []byte) {
	for k := 0; k < len(dst)*8; k++ {
		if m.MRB(lo + k) {
			dst[k/8] |= 0x80 >> (k % 8)
		} else {
			dst[k/8] &^= 0x80 >> (k % 8)
		}
	}
}

func (m *refMedium) EWB(i int) {
	m.stats.ElectricWrites++
	m.pulse(&m.dots[i], m.p.PulseTempC)
	row, col := i/m.p.Cols, i%m.p.Cols
	for _, delta := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := row+delta[0], col+delta[1]
		if nr < 0 || nr >= m.p.Rows || nc < 0 || nc >= m.p.Cols {
			continue
		}
		n := &m.dots[nr*m.p.Cols+nc]
		if m.p.NeighborTempFactor > 0 {
			m.pulse(n, m.p.PulseTempC*m.p.NeighborTempFactor)
		}
		if m.p.ThermalCrosstalk > 0 && m.rng.Float64() < m.p.ThermalCrosstalk {
			if !n.heated() {
				n.up = !n.up
				m.stats.CrosstalkFlips++
			}
		}
	}
}

func (m *refMedium) pulse(d *refDot, tempC float64) {
	if d.heated() {
		return
	}
	next := physics.PulseDamage(tempC, m.p.PulseSeconds, float64(d.damage))
	if next <= float64(d.damage) {
		return
	}
	d.damage = float32(next)
	if d.heated() {
		if m.rng.Bool() {
			d.inPlaneSign = 1
		} else {
			d.inPlaneSign = -1
		}
	}
}

func (m *refMedium) ERB(i int) bool {
	orig := m.MRB(i)
	m.MWB(i, !orig)
	inv := m.MRB(i)
	m.MWB(i, orig)
	again := m.MRB(i)
	return inv == orig || again != orig
}

func (m *refMedium) HeatedCount() int {
	n := 0
	for i := range m.dots {
		if m.dots[i].heated() {
			n++
		}
	}
	return n
}

func (m *refMedium) BulkErase() {
	for i := range m.dots {
		if !m.dots[i].heated() {
			m.dots[i].up = m.rng.Bool()
		}
	}
}

func (m *refMedium) SetStuck(i int, k StuckKind) { m.dots[i].stuck = k }

func (m *refMedium) CorruptMagnetic(i int) {
	if d := &m.dots[i]; !d.heated() {
		d.up = !d.up
	}
}

func (m *refMedium) ReplaceRegion(lo, hi int) {
	for i := lo; i < hi; i++ {
		m.dots[i] = refDot{}
	}
}

// Snapshot is the v2 format, written dot by dot.
func (m *refMedium) Snapshot() []byte {
	var buf []byte
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.p.Rows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.p.Cols))
	for _, f := range []float64{m.p.PitchNM, m.p.SignalAmplitude, m.p.ReadNoiseSigma,
		m.p.ResidualInPlaneSignal, m.p.ThermalCrosstalk, m.p.PulseTempC,
		m.p.PulseSeconds, m.p.NeighborTempFactor} {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.BigEndian.AppendUint64(buf, m.p.Seed)
	for i := range m.dots {
		d := &m.dots[i]
		var flags byte
		if d.up {
			flags |= 1
		}
		if d.inPlaneSign > 0 {
			flags |= 4
		}
		flags |= byte(d.stuck) << 3
		buf = append(buf, flags, byte(float64(d.damage)*255+0.5))
		buf = binary.BigEndian.AppendUint32(buf, d.wearWrites)
	}
	return buf
}
