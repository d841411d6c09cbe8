package device

import (
	"bytes"
	"errors"
	"testing"

	"sero/internal/medium"
)

// The medium reads a block whose row has no heated and no stuck dot as
// a byte copy. These tests pin that a single defect or heated dot in
// the block takes the dot-level read instead, so the read sees the
// physics (a dead or heated dot reads as 1 on a quiet medium) and the
// RS code corrects it — or gives up — exactly as on a per-dot read.

// zeroDot returns a dot of block pba's data region whose stored bit is
// 0: byte k of an all-zero payload, bit 3.
func zeroDot(pba uint64, k int) int {
	return int(pba)*DotsPerBlock + (HeaderBytes+k)*8 + 3
}

func TestByteReadFallsBackOnStuckOrHeatedDot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(m *medium.Medium, i int)
	}{
		{"dead", func(m *medium.Medium, i int) { m.SetStuck(i, medium.StuckDead) }},
		{"heated", func(m *medium.Medium, i int) { m.EWB(i) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDevice(t, 8)
			zero := make([]byte, DataBytes)
			if err := d.MWS(3, zero); err != nil {
				t.Fatal(err)
			}
			d.TamperRaw(3, 4, func(m *medium.Medium) { tc.inject(m, zeroDot(3, 5)) })
			got, err := d.MRS(3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, zero) {
				t.Fatal("corrected read mismatch")
			}
			if n := d.Stats().CorrectedBytes; n != 1 {
				t.Fatalf("corrected %d bytes, want the 1 byte holding the %s dot", n, tc.name)
			}
		})
	}
}

func TestHeatedDotsBeyondRSCapabilityAreUncorrectable(t *testing.T) {
	d := testDevice(t, 8)
	if err := d.MWS(4, make([]byte, DataBytes)); err != nil {
		t.Fatal(err)
	}
	// Nine heated dots in nine payload bytes of RS lane 0 (frame bytes
	// 16, 20, ..., 48): one error more than a lane corrects.
	d.TamperRaw(4, 5, func(m *medium.Medium) {
		for k := 0; k < 9; k++ {
			m.EWB(zeroDot(4, 4*k))
		}
	})
	if _, err := d.MRS(4); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("MRS = %v, want ErrUncorrectable", err)
	}
	// Eight are still within reach.
	if err := d.MWS(6, make([]byte, DataBytes)); err != nil {
		t.Fatal(err)
	}
	d.TamperRaw(6, 7, func(m *medium.Medium) {
		for k := 0; k < 8; k++ {
			m.EWB(zeroDot(6, 4*k))
		}
	})
	if _, err := d.MRS(6); err != nil {
		t.Fatalf("MRS with 8 errors in a lane: %v", err)
	}
}
