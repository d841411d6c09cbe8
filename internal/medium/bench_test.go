package medium

import "testing"

func BenchmarkMRB(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	for i := 0; i < 1024; i++ {
		m.MWB(i, i%2 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MRB(i % 1024)
	}
}

func BenchmarkMWB(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MWB(i%1024, i%2 == 0)
	}
}

func BenchmarkERBHealthy(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	for i := 0; i < 1024; i++ {
		m.MWB(i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ERB(i % 1024) {
			b.Fatal("false positive")
		}
	}
}

func BenchmarkEWB(b *testing.B) {
	m := New(DefaultParams(4, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EWB(i % m.Dots())
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	m := New(DefaultParams(64, 1024))
	for i := 0; i < 4096; i++ {
		m.MWB(i, i%3 == 0)
	}
	snap := m.Snapshot()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// blockBytes is one device block's frame image: 592 bytes, one row of
// the device geometry.
const blockBytes = 592

func BenchmarkWriteBytes(b *testing.B) {
	m := New(quiet(64, blockBytes*8))
	img := make([]byte, blockBytes)
	b.SetBytes(blockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteBytes(i%64*blockBytes*8, img)
	}
}

func BenchmarkReadBytes(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sigma float64
	}{{"quiet", 0}, {"noisy", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			p := quiet(64, blockBytes*8)
			p.ReadNoiseSigma = bc.sigma
			m := New(p)
			dst := make([]byte, blockBytes)
			b.SetBytes(blockBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ReadBytes(i%64*blockBytes*8, dst)
			}
		})
	}
}
