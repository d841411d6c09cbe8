package lfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sero/internal/device"
	"sero/internal/medium"
)

// goldenImageSHA256 is the SHA-256 of the medium image the workload in
// TestGoldenImage leaves behind. It pins the medium's physical state
// model — magnetisation, heat damage, in-plane signs, defects, wear and
// the order of draws from the noise generator — across changes to how
// the medium is represented in memory. Change it only together with a
// deliberate change to the physics or the on-medium format.
const goldenImageSHA256 = "acf33adafafdf6a1318bde1c4ff6721decb831d7d8c911d6f71e6ad88aa76ece"

// TestGoldenImage runs a fixed lfs workload on a noisy medium (read
// noise, residual signal and thermal crosstalk all on) with heated
// lines, a dead dot under live data and a line repair, then checks the
// device image byte for byte through its hash.
func TestGoldenImage(t *testing.T) {
	const blocks = 512
	dp := device.DefaultParams(blocks)
	mp := medium.DefaultParams(blocks, device.DotsPerBlock)
	mp.Seed = 2008
	dp.Medium = mp
	dp.Concurrency = 1
	dev := device.New(dp)
	fs, err := New(dev, smallParams())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		ino, err := fs.Create(fmt.Sprintf("f%02d", i), uint8(i%3))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), (i%4+1)*device.DataBytes-37*i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heatedNames := []string{"f01", "f05", "f10"}
	var heated []HeatResult
	for _, name := range heatedNames {
		hr, err := fs.HeatFile(name)
		if err != nil {
			t.Fatalf("heat %s: %v", name, err)
		}
		heated = append(heated, hr)
	}
	for _, i := range []int{0, 3, 8} {
		ino, err := fs.Lookup(fmt.Sprintf("f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(ino, 100, payload(0xA0+byte(i), 700)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete("f07"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// A dead dot in the first data block of a live file: its reads
	// come back as noise and RS corrects them.
	ino, err := fs.Lookup("f02")
	if err != nil {
		t.Fatal(err)
	}
	in, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	pba := in.Blocks[0]
	dev.TamperRaw(pba, pba+1, func(m *medium.Medium) {
		m.SetStuck(int(pba)*device.DotsPerBlock+1234, medium.StuckDead)
	})

	// Repair the second heated line with its own payloads.
	line := heated[1].Line
	var payloads [][]byte
	for p := line.Start + 1; p < line.End(); p++ {
		b, err := dev.MRS(p)
		if err != nil {
			t.Fatalf("read line block %d: %v", p, err)
		}
		payloads = append(payloads, b)
	}
	if _, err := dev.ReplaceLine(line.Start, line.LogN, payloads); err != nil {
		t.Fatal(err)
	}

	fs.Clean(fs.FreeSegments() + 2)
	// Names is sorted, so the read order, and with it the seek charges
	// and the checkpoint timestamp, is fixed.
	names := fs.Names()
	for _, name := range names {
		ino, err := fs.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(ino); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	for _, name := range heatedNames {
		reps, err := fs.VerifyFile(name)
		if err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
		for _, r := range reps {
			if r.Tampered() {
				t.Fatalf("verify %s: %+v", name, r)
			}
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(dev.SaveImage())
	if got := hex.EncodeToString(sum[:]); got != goldenImageSHA256 {
		t.Fatalf("image SHA-256 %s, want %s", got, goldenImageSHA256)
	}
}
