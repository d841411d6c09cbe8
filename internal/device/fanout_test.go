package device

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"sero/internal/trace"
)

// fanOutDevice builds the shared fixture for TestFanOutWidths: blocks
// 0..63 hold data, block 70 is heated on its own, and six 4-block lines
// at 128..151 are heated. Concurrency is 3, so workers=0 means 3.
func fanOutDevice(t *testing.T) *Device {
	t.Helper()
	d := testDevice(t, 256)
	d.SetConcurrency(3)
	data := make([][]byte, 64)
	for i := range data {
		data[i] = pattern(byte(i))
	}
	if err := d.WriteBlocks(0, data); err != nil {
		t.Fatal(err)
	}
	if err := d.EWS(70, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	for start := uint64(128); start < 152; start += 4 {
		if err := d.WriteLineBatch(start, 2, data[:3]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.HeatLine(start, 2); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestFanOutWidths runs each caller-sized fan-out pass over 7 items
// (one of which fails) at every worker count. The results and the
// medium must not depend on the width, and the pass's join span must
// count the planes it ran: min(w, 7) for the round-robin passes, and
// for the contiguous read split only the ranges that hold work (at
// w=5, ranges of 2 leave 4 planes).
func TestFanOutWidths(t *testing.T) {
	widths := []int{0, 1, 2, 3, 4, 5, 7}
	roundRobin := []int{3, 1, 2, 3, 4, 5, 7}
	contiguous := []int{3, 1, 2, 3, 4, 4, 7}
	passes := []struct {
		span   string
		planes []int
		run    func(d *Device, w int) string
	}{
		{"read-fanout", contiguous, func(d *Device, w int) string {
			bufs, errs := d.ReadBlocksFanned([]uint64{3, 70, 12, 0, 63, 40, 31}, w)
			var out string
			for i := range bufs {
				out += fmt.Sprintf("%x %v\n", sha256.Sum256(bufs[i]), errs[i])
			}
			return out
		}},
		{"write-fanout", roundRobin, func(d *Device, w int) string {
			runs := make([]WriteRun, 7)
			for r := range runs {
				runs[r] = WriteRun{Start: uint64(80 + 6*r), Blocks: [][]byte{pattern(byte(100 + r)), pattern(byte(r))}}
			}
			runs[3].Start = 69 // covers the heated block 70: refused
			return fmt.Sprint(d.WriteRunsFanned(runs, w))
		}},
		{"verify-fanout", roundRobin, func(d *Device, w int) string {
			return fmt.Sprintf("%+v", d.VerifyLines([]uint64{128, 132, 136, 100, 140, 144, 148}, w))
		}},
		{"move-fanout", roundRobin, func(d *Device, w int) string {
			groups := make([][]BlockMove, 7)
			for g := range groups {
				src, dst := uint64(8*g), uint64(160+8*g)
				groups[g] = []BlockMove{{Src: src, Dst: dst}, {Src: src + 1, Dst: dst + 1}, {Src: src + 5, Dst: dst + 4}}
			}
			groups[4][2].Dst = 70 // third move lands on the heated block: refused
			return fmt.Sprintf("%+v", d.MoveGroups(groups, w))
		}},
	}
	for _, p := range passes {
		var wantOut string
		var wantImg []byte
		for i, w := range widths {
			d := fanOutDevice(t)
			tr := trace.New(0)
			d.SetTracer(tr)
			out := p.run(d, w)
			d.SetTracer(nil)
			var joins []trace.Span
			for _, s := range tr.Spans() {
				if s.Name == p.span {
					joins = append(joins, s)
				}
			}
			if len(joins) != 1 || joins[0].V1 != int64(p.planes[i]) {
				t.Errorf("%s w=%d: join spans %+v, want one with V1=%d", p.span, w, joins, p.planes[i])
			}
			img := d.SaveImage()
			if i == 0 {
				wantOut, wantImg = out, img
				continue
			}
			if out != wantOut {
				t.Errorf("%s w=%d: results differ from w=%d:\n%s\nvs\n%s", p.span, w, widths[0], out, wantOut)
			}
			if !bytes.Equal(img, wantImg) {
				t.Errorf("%s w=%d: medium differs from w=%d", p.span, w, widths[0])
			}
		}
	}
}
