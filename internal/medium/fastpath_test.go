package medium

import (
	"bytes"
	"sync"
	"testing"
)

// TestPartialReplaceRestoresByteRowOnlyWhenClean checks that a row
// with a heated or stuck dot leaves the byte path, that replacing part
// of the row keeps it off while any heated or stuck dot remains, and
// that the row is back on the byte path once the last one is replaced.
func TestPartialReplaceRestoresByteRowOnlyWhenClean(t *testing.T) {
	const cols = 64
	m := New(quiet(3, cols))
	img := bytes.Repeat([]byte{0xA5}, cols/8)
	m.WriteBytes(cols, img)
	r := &m.rows[1]
	if !r.clean() {
		t.Fatal("fresh row not clean")
	}
	m.EWB(cols + 10)
	m.SetStuck(cols+40, StuckDown)
	if r.clean() {
		t.Fatal("row with a heated and a stuck dot still clean")
	}
	if m.rows[0].clean() != true || m.rows[2].clean() != true {
		t.Fatal("neighbour pulses made adjacent rows unclean")
	}

	m.ReplaceRegion(cols+8, cols+16) // the heated dot
	if r.clean() {
		t.Fatal("row clean while a stuck dot remains")
	}
	m.ReplaceRegion(cols+16, cols+24) // healthy dots only
	if r.clean() {
		t.Fatal("replacing healthy dots made the row clean")
	}
	m.ReplaceRegion(cols+40, cols+48) // the stuck dot
	if !r.clean() {
		t.Fatal("row not clean after its last heated and stuck dots were replaced")
	}

	// Replaced dots are factory fresh; the rest kept bits and wear.
	want := append([]byte(nil), img...)
	want[1], want[2], want[5] = 0, 0, 0
	got := make([]byte, cols/8)
	m.ReadBytes(cols, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("row reads %x, want %x", got, want)
	}
	for c := 0; c < cols; c++ {
		w, fresh := m.WearWrites(cols+c), c/8 == 1 || c/8 == 2 || c/8 == 5
		if fresh && w != 0 || !fresh && w != 1 {
			t.Fatalf("column %d wear %d", c, w)
		}
	}
}

// TestByteWriteSparesHeatedDot checks that a byte write over a row
// with a heated dot leaves that dot's stored bit alone, as MWB does.
func TestByteWriteSparesHeatedDot(t *testing.T) {
	m := New(quiet(1, 16))
	m.WriteBytes(0, []byte{0xFF, 0xFF})
	m.EWB(3)
	m.WriteBytes(0, []byte{0, 0})
	if m.State(3) != DotH {
		t.Fatal("heated dot lost its state")
	}
	if !m.up(3) {
		t.Fatal("byte write changed a heated dot's bit")
	}
	for _, i := range []int{0, 4, 15} {
		if m.State(i) != Dot0 {
			t.Fatalf("dot %d not rewritten", i)
		}
	}
}

// TestDisjointRowsConcurrent drives byte and dot operations on
// disjoint rows from several goroutines at once, with read noise on so
// the reads share the noise generator. Under -race it checks that row
// exception records created on first use are private to their row.
func TestDisjointRowsConcurrent(t *testing.T) {
	const cols, workers = 64, 4
	p := DefaultParams(3*workers, cols)
	p.ThermalCrosstalk = 0 // crosstalk reaches the neighbouring rows
	m := New(p)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(row int) {
			defer wg.Done()
			lo := row * cols
			img := bytes.Repeat([]byte{byte(row)}, cols/8)
			got := make([]byte, cols/8)
			for k := 0; k < 50; k++ {
				m.WriteBytes(lo, img)
				m.ReadBytes(lo, got)
				m.MWB(lo+k%cols, k%2 == 0)
				m.SetStuck(lo+(k*7)%cols, StuckKind(k%4))
				if k%10 == 0 {
					m.EWB(lo + k%cols)
				}
				m.ERB(lo + (k+3)%cols)
			}
		}(3*w + 1) // rows 1, 4, 7, ...: EWB's neighbour rows stay disjoint
	}
	wg.Wait()
	if m.Stats().ElectricWrites != workers*5 {
		t.Fatalf("electric writes %d", m.Stats().ElectricWrites)
	}
}
