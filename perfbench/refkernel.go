package main

import "sync/atomic"

// The reference kernel gauges how fast the host runs code like the
// simulator's at the moment of measurement. On a shared machine the
// CPU time of identical work drifts by up to 1.3x over minutes as
// neighbours load caches, memory and clocks, moving every host figure
// together; dividing by the reference's CPU time, measured in the same
// run, cancels that drift. The kernel shares no code with the program
// under test, so speeding up the simulator does not speed it up too.
//
// One step mimics the simulator's hot path for one block: stream a
// block's worth of 12-byte dots out of a large array, bumping a shared
// atomic counter per dot, read another block's dots back into bytes,
// and run a table-driven GF(2^8) pass over them.
const (
	refDots      = 128 << 20 / 12 // a 128 MiB dot array, past the private caches
	refBlockDots = 4800           // one block's dots
	refSteps     = 2000           // steps per sample, about 0.12 s
	// refNominalStep is a step's CPU time in ns on an unloaded 2-vCPU
	// Xeon virtual machine; set-up time is reported at that speed.
	refNominalStep = 60000
)

type refDot struct {
	up    bool
	sign  int8
	stuck uint8
	dmg   float32
	wear  uint32
}

type refKernel struct {
	dots  []refDot
	gf    [256][256]byte
	x     uint64
	count atomic.Uint64
	sink  byte
}

func newRefKernel() *refKernel {
	r := &refKernel{dots: make([]refDot, refDots), x: 0x9E3779B97F4A7C15}
	for i := range r.dots {
		r.dots[i].dmg = float32(i%7) / 10
	}
	for a := range 256 {
		for b := range 256 {
			r.gf[a][b] = gfMul(byte(a), byte(b))
		}
	}
	return r
}

// gfMul multiplies in GF(2^8) modulo x^8+x^4+x^3+x^2+1.
func gfMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}

func (r *refKernel) next() int {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return int(r.x % uint64(len(r.dots)-refBlockDots))
}

// sample runs refSteps steps and returns their process CPU time in ns.
func (r *refKernel) sample() int64 {
	var buf [refBlockDots / 8]byte
	t0 := cpuTime()
	for range refSteps {
		run := r.dots[r.next():][:refBlockDots]
		for i := range run {
			d := &run[i]
			r.count.Add(1)
			d.wear++
			if d.dmg < 0.5 {
				d.up = (r.x>>(i&63))&1 == 1
			}
		}
		run = r.dots[r.next():][:refBlockDots]
		for i := range run {
			if run[i].up {
				buf[i>>3] ^= 1 << (i & 7)
			}
		}
		p := r.sink
		for _, b := range buf {
			p = r.gf[p^b][byte(r.x)]
		}
		r.sink = p
	}
	return int64(cpuTime() - t0)
}
