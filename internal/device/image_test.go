package device

import (
	"bytes"
	"errors"
	"testing"

	"sero/internal/medium"
)

func TestSaveLoadImageRoundTrip(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := d.HeatLine(0, 3)
	if err != nil {
		t.Fatal(err)
	}

	img := d.SaveImage()
	d2, recovered, err := LoadImage(img, DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Blocks() != 16 {
		t.Fatalf("blocks %d", d2.Blocks())
	}
	if len(recovered) != 1 || recovered[0].Record.Hash != want.Record.Hash {
		t.Fatalf("recovered %+v", recovered)
	}
	// Data survives the round trip.
	for pba := uint64(1); pba < 8; pba++ {
		got, rerr := d2.MRS(pba)
		if rerr != nil || !bytes.Equal(got, pattern(byte(pba))) {
			t.Fatalf("block %d after load: %v", pba, rerr)
		}
	}
	// Verification still works.
	rep, err := d2.VerifyLine(0)
	if err != nil || !rep.OK {
		t.Fatalf("verify after load: %+v %v", rep, err)
	}
	// Wear and defects survive too.
	d.Medium().SetStuck(3, medium.StuckUp)
	img2 := d.SaveImage()
	d3, _, err := LoadImage(img2, DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Medium().Stuck(3) != medium.StuckUp {
		t.Fatal("defect lost in image")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, _, err := LoadImage([]byte("nonsense"), DefaultParams(0)); err == nil {
		t.Fatal("garbage image loaded")
	}
}

func TestLoadImageBlockMismatch(t *testing.T) {
	d := testDevice(t, 8)
	img := d.SaveImage()
	if _, _, err := LoadImage(img, DefaultParams(16)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// A device maps one block to one medium row, and the medium only
// serialises operations per row; an image whose rows are not exactly
// one block wide would let blocks share rows, so it must be refused.
func TestLoadImageRejectsRowsNotOneBlock(t *testing.T) {
	for _, cols := range []int{DotsPerBlock * 2, DotsPerBlock / 2, DotsPerBlock + 8} {
		img := medium.New(medium.DefaultParams(4, cols)).Snapshot()
		if _, _, err := LoadImage(img, DefaultParams(0)); !errors.Is(err, medium.ErrBadSnapshot) {
			t.Fatalf("cols %d: err = %v, want ErrBadSnapshot", cols, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a medium with two blocks per row")
		}
	}()
	p := DefaultParams(8)
	p.Medium = medium.DefaultParams(4, DotsPerBlock*2)
	New(p)
}

func TestImageTamperedBetweenSessions(t *testing.T) {
	// The attacker edits the image offline; the reloaded device's
	// verification catches it — host state is rebuilt from the medium,
	// so there is nothing host-side to spoof.
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	img := d.SaveImage()
	d2, _, err := LoadImage(img, DefaultParams(0))
	if err != nil {
		t.Fatal(err)
	}
	// Offline raw edit on the loaded device's medium.
	bits := ForgedFrameBits(2, pattern(0x66))
	base := 2 * DotsPerBlock
	for i, b := range bits {
		d2.Medium().MWB(base+i, b)
	}
	rep, err := d2.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("offline tamper not detected after reload")
	}
}

func TestShredLine(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := d.ShredLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DotsDestroyed != 3*DotsPerBlock {
		t.Fatalf("destroyed %d dots", rep.DotsDestroyed)
	}
	// Data is unrecoverable...
	for pba := uint64(1); pba < 4; pba++ {
		if _, err := d.MRS(pba); err == nil {
			t.Fatalf("shredded block %d still readable", pba)
		}
	}
	// ...and the destruction is self-evident.
	shredded, err := d.IsShredded(0)
	if err != nil || !shredded {
		t.Fatalf("IsShredded %v %v", shredded, err)
	}
	vr, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if vr.OK {
		t.Fatal("shredded line verifies clean")
	}
	// The tombstone record survives a rescan.
	recovered, _, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("tombstone lost: %v", recovered)
	}
}

func TestShredUnknownLine(t *testing.T) {
	d := testDevice(t, 8)
	if _, err := d.ShredLine(0); err == nil {
		t.Fatal("shred of unknown line accepted")
	}
	if _, err := d.IsShredded(0); err == nil {
		t.Fatal("IsShredded of unknown line accepted")
	}
}

func TestShredNotShreddedDetection(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	shredded, err := d.IsShredded(0)
	if err != nil || shredded {
		t.Fatalf("intact line reported shredded: %v %v", shredded, err)
	}
}
