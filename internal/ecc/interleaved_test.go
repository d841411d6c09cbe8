package ecc

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/sim"
)

// mulEncode is the Mul-based systematic encoder the table-driven one
// must match: parity = (data · x^parity) mod gen.
func mulEncode(c *Codec, data []byte) []byte {
	rem := make([]byte, c.parity)
	for _, d := range data {
		factor := d ^ rem[0]
		copy(rem, rem[1:])
		rem[c.parity-1] = 0
		for i := 0; i < c.parity; i++ {
			rem[i] ^= Mul(c.gen[i+1], factor)
		}
	}
	return append(append([]byte(nil), data...), rem...)
}

// laneDecode is the lane-by-lane interleaved decoder the in-place one
// must match: gather each lane (an empty lane as the byte 0), decode
// it as a contiguous codeword, scatter the data back into a copy. buf
// is not modified.
func laneDecode(il *Interleaved, buf []byte, dataLen int) ([]byte, int, error) {
	data := append([]byte(nil), buf[:dataLen]...)
	corrected := 0
	off := dataLen
	for w := 0; w < il.ways; w++ {
		var lane []byte
		var idx []int
		for i := w; i < dataLen; i += il.ways {
			lane = append(lane, data[i])
			idx = append(idx, i)
		}
		if len(lane) == 0 {
			lane = []byte{0}
		}
		cw := append(lane, buf[off:off+il.codec.parity]...)
		off += il.codec.parity
		fixed, n, err := il.codec.Decode(cw)
		if err != nil {
			return nil, corrected, err
		}
		corrected += n
		for j, i := range idx {
			data[i] = fixed[j]
		}
	}
	return data, corrected, nil
}

func TestTableEncodeMatchesMulEncode(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, parity := range []int{1, 2, 16, 32} {
		c := NewCodec(parity)
		for n := 1; n <= c.MaxData(); n++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if got, want := c.Encode(data), mulEncode(c, data); !bytes.Equal(got, want) {
				t.Fatalf("parity %d, %d bytes: %x != %x", parity, n, got, want)
			}
		}
	}
}

func TestTableSyndromesMatchPolyEval(t *testing.T) {
	rng := sim.NewRNG(10)
	c := NewCodec(16)
	for n := 1; n <= 255; n++ {
		cw := make([]byte, n)
		for i := range cw {
			cw[i] = byte(rng.Uint64())
		}
		syn, clean := c.syndromes(cw)
		allZero := true
		for i := range syn {
			if want := polyEval(cw, Exp(i)); syn[i] != want {
				t.Fatalf("%d bytes: syndrome %d = %d, want %d", n, i, syn[i], want)
			}
			allZero = allZero && syn[i] == 0
		}
		if clean != allZero {
			t.Fatalf("%d bytes: clean %v with syndromes %v", n, clean, syn)
		}
	}
}

func TestInterleavedEncodeMatchesLanes(t *testing.T) {
	rng := sim.NewRNG(12)
	il := NewInterleaved(16, 4)
	for n := 1; n <= il.MaxData(); n += 1 + n/16 {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		got := il.Encode(data)
		want := append([]byte(nil), data...)
		for w := 0; w < il.ways; w++ {
			lane := []byte{}
			for i := w; i < n; i += il.ways {
				lane = append(lane, data[i])
			}
			if len(lane) == 0 {
				lane = []byte{0}
			}
			want = append(want, mulEncode(il.codec, lane)[len(lane):]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: interleaved encode differs from per-lane encode", n)
		}
	}
}

// TestInterleavedDecodeMatchesLaneDecode corrupts encoded buffers with
// 0 to 9 byte errors per lane (9 is one beyond the code's reach) at
// random positions, data and parity alike, and requires the in-place
// decoder to return what the lane-by-lane decoder returns.
func TestInterleavedDecodeMatchesLaneDecode(t *testing.T) {
	rng := sim.NewRNG(13)
	il := NewInterleaved(16, 4)
	for _, dataLen := range []int{1, 3, 4, 5, 100, 528, il.MaxData()} {
		for trial := 0; trial < 60; trial++ {
			data := make([]byte, dataLen)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			buf := il.Encode(data)
			errs := 0
			if trial > 0 {
				errs = rng.Intn(10)
			}
			for w := 0; w < il.ways; w++ {
				// Lane w's bytes: its data bytes, then its parity run.
				var pos []int
				for i := w; i < dataLen; i += il.ways {
					pos = append(pos, i)
				}
				for k := 0; k < il.codec.parity; k++ {
					pos = append(pos, dataLen+w*il.codec.parity+k)
				}
				for e := 0; e < errs && e < len(pos); e++ {
					j := e + rng.Intn(len(pos)-e)
					pos[e], pos[j] = pos[j], pos[e]
					buf[pos[e]] ^= byte(1 + rng.Intn(255))
				}
			}
			wantData, wantN, wantErr := laneDecode(il, buf, dataLen)
			got := append([]byte(nil), buf...)
			gotData, gotN, gotErr := il.Decode(got, dataLen)
			name := fmt.Sprintf("len %d trial %d errs %d", dataLen, trial, errs)
			if gotErr != wantErr || gotN != wantN || !bytes.Equal(gotData, wantData) {
				t.Fatalf("%s: (%d, %v) != (%d, %v)", name, gotN, gotErr, wantN, wantErr)
			}
			if gotErr == nil {
				if !bytes.Equal(gotData, data) {
					t.Fatalf("%s: decoded data differs from the original", name)
				}
				if &gotData[0] != &got[0] {
					t.Fatalf("%s: returned data does not alias buf", name)
				}
				if !bytes.Equal(got, il.Encode(data)) {
					t.Fatalf("%s: buf not corrected in place", name)
				}
			}
		}
	}
}

func TestInterleavedCleanDecodeAllocatesNothing(t *testing.T) {
	il := NewInterleaved(16, 4)
	buf := il.Encode(make([]byte, 528))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := il.Decode(buf, 528); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("clean decode allocated %v times", allocs)
	}
}

// The benchmarks use the device's sector geometry: 528 framed bytes
// (header and payload) under 4 lanes of 16 parity bytes.

// encodeSink keeps the benchmarked Encode results live.
var encodeSink []byte

func BenchmarkInterleavedEncode(b *testing.B) {
	il := NewInterleaved(16, 4)
	data := make([]byte, 528)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		encodeSink = il.Encode(data)
	}
}

func BenchmarkInterleavedDecode(b *testing.B) {
	il := NewInterleaved(16, 4)
	data := make([]byte, 528)
	for i := range data {
		data[i] = byte(i * 7)
	}
	clean := il.Encode(data)
	dirty := append([]byte(nil), clean...)
	for w := 0; w < 4; w++ {
		dirty[w+40] ^= 0x5A // one byte error per lane
	}
	for _, bc := range []struct {
		name string
		src  []byte
	}{{"clean", clean}, {"dirty", dirty}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, len(bc.src))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, bc.src)
				if _, _, err := il.Decode(buf, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
