package device

import (
	"runtime"
	"testing"
)

// TestScanMemoryIsSparse bounds the heap a Scan of a fresh device
// allocates and keeps. The heated-block probe runs ERB on 64 sampled
// dots of every block, and each ERB writes its dot twice; the medium
// must record that wear in proportion to the dots touched, not with a
// per-dot counter for the whole row (4736 × 4 bytes, about 19 KB per
// block, which on the 524 288-block default device is 9.9 GB).
func TestScanMemoryIsSparse(t *testing.T) {
	const blocks = 4096
	const perBlock = 4096 // bytes; a dense per-row wear slice is 18 944
	d := New(DefaultParams(blocks))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := d.Scan(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > blocks*perBlock {
		t.Errorf("Scan allocated %d bytes for %d blocks, limit %d", got, blocks, blocks*perBlock)
	}
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > blocks*perBlock {
		t.Errorf("Scan left %d live bytes for %d blocks, limit %d", got, blocks, blocks*perBlock)
	}
	runtime.KeepAlive(d)
}
