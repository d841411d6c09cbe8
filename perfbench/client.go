package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/workload"
)

// errMismatch reports a read whose bytes differ from the shadow copy.
var errMismatch = errors.New("content differs from the shadow copy")

// Client op kinds. The lfs ones are also the lfs.<m> per-layer names.
const (
	kCreate    = "create"
	kWrite     = "write"
	kRead      = "read"
	kRename    = "rename"
	kDelete    = "delete"
	kSync      = "sync"
	kHeat      = "heat"
	kCleanStep = "clean_step"
	kAudit     = "audit_step"
	kMount     = "mount"
	kVerify    = "verify_lines"
	kScan      = "scan"
)

// lfsMethods are the client calls that enter the lfs layer, in report
// order; verify_lines and scan go straight to the device.
var lfsMethods = []string{kCreate, kWrite, kRead, kRename, kDelete, kSync, kHeat, kCleanStep, kAudit, kMount}

// clientSpan maps a client op kind to its top-level span id.
var clientSpan = func() map[string]int16 {
	m := make(map[string]int16)
	for _, k := range lfsMethods {
		m[k] = spanID("lfs." + k)
	}
	m[kVerify] = spanID("client." + kVerify)
	m[kScan] = spanID("client." + kScan)
	return m
}()

// Sync classes, by which lfs.Stats counter the call moved.
const (
	syncFast = iota
	syncReanchor
	syncCheckpoint
)

var syncClassNames = [3]string{"sync_fast", "sync_reanchor", "sync_checkpoint"}

// client is the single closed-loop client: it issues one call at a
// time into the layers' public functions, times each one on the host
// and on the device's virtual clock, and checks every result against a
// shadow copy of each file's bytes.
type client struct {
	fs     *lfs.FS
	clock  *sim.Clock
	arr    *array.Array // nil on a raw device
	rec    *recorder    // nil in an untraced episode
	inos   map[string]lfs.Ino
	shadow map[string][]byte
	buf    []byte

	// closed holds the counters of the FS a remount replaced, whose
	// activity the measured phase still accounts for.
	closed *lfs.Stats

	// measuring is true inside the measured phase; only then are ops
	// timed and counted in the end-to-end statistics.
	measuring bool
	// userBlocks counts blocks the measured phase's writes carried.
	userBlocks uint64

	attempted, failed int
	measuredOps       int
	hostNS            []int64            // per measured op
	virtNS            map[string][]int64 // per measured op kind

	// Traced-episode probes: sync classification and member clock lag.
	syncCalls [3]int64
	syncVirt  [3]int64
	lagMaxNS  int64
	lagSumNS  float64
	lagN      int64
}

func newClient(fs *lfs.FS, arr *array.Array, rec *recorder) *client {
	return &client{
		fs:     fs,
		clock:  fs.Device().Clock(),
		arr:    arr,
		rec:    rec,
		inos:   make(map[string]lfs.Ino),
		shadow: make(map[string][]byte),
		virtNS: make(map[string][]int64),
	}
}

// fail records a failed or mis-verified op.
func (c *client) fail(kind string, err error) {
	c.failed++
	if c.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
	}
}

// call issues one client op, timing and counting it when measuring.
func (c *client) call(kind string, fn func() error) error {
	c.attempted++
	if !c.measuring {
		err := fn()
		if err != nil {
			c.fail(kind, err)
		}
		return err
	}
	if c.rec != nil && c.arr != nil {
		c.sampleLag()
	}
	c.measuredOps++
	if c.rec != nil {
		c.rec.op++
	}
	sp := c.rec.begin(clientSpan[kind], 0)
	v0 := c.clock.Now()
	t0 := time.Now()
	err := fn()
	host := time.Since(t0)
	virt := c.clock.Now() - v0
	c.rec.end(sp)
	c.hostNS = append(c.hostNS, int64(host))
	c.virtNS[kind] = append(c.virtNS[kind], int64(virt))
	if err != nil {
		c.fail(kind, err)
	}
	return err
}

// sampleLag records how far each member's clock trails the array
// clock before an op.
func (c *client) sampleLag() {
	st := c.arr.ArrayStats()
	now := c.clock.Now()
	for _, mc := range st.MemberClocks {
		lag := int64(now - mc)
		if lag > c.lagMaxNS {
			c.lagMaxNS = lag
		}
		c.lagSumNS += float64(lag)
		c.lagN++
	}
}

// ino resolves a name through the client's cache.
func (c *client) ino(name string) (lfs.Ino, error) {
	if ino, ok := c.inos[name]; ok {
		return ino, nil
	}
	ino, err := c.fs.Lookup(name)
	if err == nil {
		c.inos[name] = ino
	}
	return ino, err
}

// apply issues one generated op and keeps the shadow copy in step.
func (c *client) apply(op workload.Op) {
	switch op.Kind {
	case workload.OpCreate:
		c.create(op.Name, op.Affinity)
	case workload.OpWrite:
		c.write(op.Name, op.Offset, op.Data)
	case workload.OpRead:
		n := op.Length
		if n <= 0 {
			n = device.DataBytes
		}
		c.read(op.Name, op.Offset, n)
	case workload.OpRename:
		c.call(kRename, func() error {
			if err := c.fs.Rename(op.Name, op.NewName); err != nil {
				return err
			}
			if ino, ok := c.inos[op.Name]; ok {
				delete(c.inos, op.Name)
				c.inos[op.NewName] = ino
			}
			c.shadow[op.NewName] = c.shadow[op.Name]
			delete(c.shadow, op.Name)
			return nil
		})
	case workload.OpDelete:
		c.call(kDelete, func() error {
			if err := c.fs.Delete(op.Name); err != nil {
				return err
			}
			delete(c.inos, op.Name)
			delete(c.shadow, op.Name)
			return nil
		})
	case workload.OpHeat:
		c.heat(op.Name)
	case workload.OpSync:
		c.sync()
	default:
		c.fail("apply", fmt.Errorf("unknown op kind %v", op.Kind))
	}
}

func (c *client) create(name string, affinity uint8) {
	c.call(kCreate, func() error {
		ino, err := c.fs.Create(name, affinity)
		if err != nil {
			return err
		}
		c.inos[name] = ino
		c.shadow[name] = []byte{}
		return nil
	})
}

func (c *client) write(name string, off uint64, data []byte) {
	if c.measuring {
		c.userBlocks += uint64((len(data) + device.DataBytes - 1) / device.DataBytes)
	}
	c.call(kWrite, func() error {
		ino, err := c.ino(name)
		if err != nil {
			return err
		}
		if err := c.fs.Write(ino, off, data); err != nil {
			return err
		}
		s := c.shadow[name]
		if end := off + uint64(len(data)); end > uint64(len(s)) {
			s = append(s, make([]byte, end-uint64(len(s)))...)
		}
		copy(s[off:], data)
		c.shadow[name] = s
		return nil
	})
}

// read reads n bytes at off and compares them with the shadow copy.
func (c *client) read(name string, off uint64, n int) {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	p := c.buf[:n]
	var got int
	err := c.call(kRead, func() error {
		ino, err := c.ino(name)
		if err != nil {
			return err
		}
		got, err = c.fs.Read(ino, off, p)
		return err
	})
	if err != nil {
		return
	}
	want := c.shadow[name]
	if off >= uint64(len(want)) {
		want = nil
	} else {
		want = want[off:]
	}
	if len(want) > n {
		want = want[:n]
	}
	if !bytes.Equal(p[:got], want) {
		c.fail(kRead, fmt.Errorf("%s @%d: %w", name, off, errMismatch))
	}
}

func (c *client) heat(name string) {
	c.call(kHeat, func() error {
		_, err := c.fs.HeatFile(name)
		return err
	})
}

// sync issues a Sync; in a traced episode it also classifies the call
// by the lfs.Stats counter it moved.
func (c *client) sync() {
	if c.rec == nil || !c.measuring {
		c.call(kSync, c.fs.Sync)
		return
	}
	before := c.fs.Stats()
	v0 := c.clock.Now()
	c.call(kSync, c.fs.Sync)
	virt := int64(c.clock.Now() - v0)
	after := c.fs.Stats()
	class := syncFast
	switch {
	case after.Checkpoints > before.Checkpoints:
		class = syncCheckpoint
	case after.JournalReanchors > before.JournalReanchors:
		class = syncReanchor
	}
	c.syncCalls[class]++
	c.syncVirt[class] += virt
}

// remount syncs, closes the file system and mounts it again from the
// device with the same parameters.
func (c *client) remount() {
	c.sync()
	c.fs.Close()
	st := c.fs.Stats()
	c.closed = &st
	p := c.fs.Params()
	dev := c.fs.Device()
	c.call(kMount, func() error {
		fs, err := lfs.Mount(dev, p)
		if err != nil {
			return err
		}
		c.fs = fs
		c.inos = make(map[string]lfs.Ino)
		return nil
	})
}

// stats returns the FS counters, those of the FS before a remount if
// one happened.
func (c *client) stats() lfs.Stats {
	if c.closed != nil {
		return *c.closed
	}
	return c.fs.Stats()
}

// readBack checks that the mounted namespace is exactly the shadow's
// and that every file except those in skip reads back byte-identical.
func (c *client) readBack(skip map[string]bool) {
	names := c.fs.Names()
	if len(names) != len(c.shadow) {
		c.attempted++
		c.fail("read-back", fmt.Errorf("%d files mounted, %d acked", len(names), len(c.shadow)))
	}
	for name, want := range c.shadow {
		if skip[name] {
			continue
		}
		c.attempted++
		ino, err := c.fs.Lookup(name)
		var got []byte
		if err == nil {
			got, err = c.fs.ReadFile(ino)
		}
		if err == nil && !bytes.Equal(got, want) {
			err = errMismatch
		}
		if err != nil {
			c.fail("read-back", fmt.Errorf("%s: %w", name, err))
		}
	}
}
