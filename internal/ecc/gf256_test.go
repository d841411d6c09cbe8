package ecc

import (
	"testing"
	"testing/quick"
)

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("Mul(%d,1) = %d", a, got)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("Mul(%d,0) = %d", a, got)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulDistributesOverAdd(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * Inv(a) = %d for a=%d", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1,0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Exp(Log(byte(a))); got != byte(a) {
			t.Fatalf("Exp(Log(%d)) = %d", a, got)
		}
	}
}

func TestExpGeneratesWholeField(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("α generated %d distinct non-zero elements, want 255", len(seen))
	}
}

// polyEval evaluates polynomial p (coefficients highest-degree first)
// at x using Horner's rule — the Mul-based reference for the codec's
// table-driven syndromes.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

func TestPolyEvalKnown(t *testing.T) {
	// p(x) = x^2 + 1 at x=2: 4 XOR 1 = 5 in GF(2^8).
	p := []byte{1, 0, 1}
	if got := polyEval(p, 2); got != 5 {
		t.Fatalf("polyEval = %d, want 5", got)
	}
}

func TestPolyMulDegree(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5}
	got := polyMul(a, b)
	if len(got) != 4 {
		t.Fatalf("product length %d, want 4", len(got))
	}
}

func TestPolyAddDifferentLengths(t *testing.T) {
	got := polyAdd([]byte{1}, []byte{2, 3})
	want := []byte{2, 2} // aligned at the low end: [0,1]+[2,3]
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("polyAdd = %v, want %v", got, want)
	}
}

func TestPolyScale(t *testing.T) {
	got := polyScale([]byte{1, 2}, 3)
	if got[0] != Mul(1, 3) || got[1] != Mul(2, 3) {
		t.Fatalf("polyScale = %v", got)
	}
}
