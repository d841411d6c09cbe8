// Package ecc implements Reed-Solomon error correction over GF(2^8),
// providing the "about 15% sector overhead for the sector header, error
// correction, and cyclic redundancy check" the paper adopts from
// Pozidis et al. [39] (§3).
package ecc

// GF(2^8) with the conventional primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator α = 2.
const poly = 0x11D

var (
	expTable [512]byte // doubled so exp lookups avoid a mod
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a+b in GF(2^8) (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics on division by zero, which in
// a correctly implemented decoder can only arise from a logic error.
func Div(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Panics on zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("ecc: inverse of zero in GF(256)")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns α^n for n >= 0.
func Exp(n int) byte { return expTable[n%255] }

// Log returns log_α(a). Panics on zero.
func Log(a byte) int {
	if a == 0 {
		panic("ecc: log of zero in GF(256)")
	}
	return int(logTable[a])
}

// polyMul multiplies two polynomials over GF(2^8), highest-degree
// first.
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= Mul(ca, cb)
		}
	}
	return out
}

// polyScale multiplies polynomial p by scalar s.
func polyScale(p []byte, s byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[i] = Mul(c, s)
	}
	return out
}

// polyAdd adds two polynomials (highest-degree first, possibly of
// different length).
func polyAdd(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out[n-len(a):], a)
	for i := 0; i < len(b); i++ {
		out[n-len(b)+i] ^= b[i]
	}
	return out
}
