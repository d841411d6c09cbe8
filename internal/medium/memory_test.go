package medium_test

import (
	"runtime"
	"testing"

	"sero/internal/device"
	"sero/internal/medium"
)

// TestNewMemoryIsOneBitPerDot bounds what New allocates for a medium
// of 65 536 blocks in the device's geometry (one row per block): one
// bit per dot plus at most 64 bytes of bookkeeping per row. A per-dot
// record of any size would blow the bound eightfold.
func TestNewMemoryIsOneBitPerDot(t *testing.T) {
	const rows = 65536
	p := medium.DefaultParams(rows, device.DotsPerBlock)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := medium.New(p)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(m.Dots()/8 + 64*rows)
	if got > limit {
		t.Fatalf("New allocated %d bytes for %d dots in %d rows, limit %d", got, m.Dots(), rows, limit)
	}
	runtime.KeepAlive(m)
}
