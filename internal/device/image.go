package device

import (
	"fmt"

	"sero/internal/medium"
)

// Device image persistence: a device image is the medium snapshot
// alone. Host-side state (heated-line registry, bad-block table) is
// deliberately NOT saved — on load it is rebuilt by scanning the
// medium, the same trust model as the paper's §5.2: the medium is the
// evidence; host metadata is reconstructible and untrusted.

// SaveImage serialises the device's medium. It holds the exclusive
// device gate: a snapshot is a whole-medium read and must not observe
// half-finished writes.
func (d *Device) SaveImage() []byte {
	d.gate.Lock()
	defer d.gate.Unlock()
	return d.med.Snapshot()
}

// LoadImage reconstructs a device from an image produced by SaveImage,
// using the given parameters for everything the medium does not carry
// (timing, geometry, retry policy; Params.Medium is ignored). The
// heated-line registry is rebuilt with a full scan.
func LoadImage(img []byte, p Params) (*Device, []LineInfo, error) {
	med, err := medium.RestoreSnapshot(img)
	if err != nil {
		return nil, nil, err
	}
	mp := med.Params()
	if mp.Cols != DotsPerBlock {
		return nil, nil, fmt.Errorf("%w: medium rows of %d dots, blocks need %d",
			medium.ErrBadSnapshot, mp.Cols, DotsPerBlock)
	}
	blocks := mp.Rows
	if p.Blocks > 0 && p.Blocks != blocks {
		return nil, nil, fmt.Errorf("device: image holds %d blocks, params say %d", blocks, p.Blocks)
	}
	p.Blocks = blocks
	p.Medium = mp
	d := New(p)
	// Swap in the restored medium (New built a fresh one from mp).
	d.med = med
	recovered, _, err := d.Scan()
	if err != nil {
		return nil, nil, err
	}
	return d, recovered, nil
}
