package lfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sero/internal/device"
	"sero/internal/trace"
)

// attributionSHA256 is the SHA-256 of the per-op attribution ledger
// TestAttributionGolden records: one "kind device-ns lock-wait-ns"
// line per traced operation. It pins which device time each operation
// is charged — across the journal fast path, re-anchors, policy
// checkpoints, fanned flushes, inline cleaning and heating — so a
// change to how lfs threads an operation's task cannot move device
// time between operations unnoticed. Change it only together with a
// deliberate change to attribution or to the device cost model.
const attributionSHA256 = "83330505c7addcf1a30f10a623f8ca61dd60034d5192159acadbe0fb7d20a730"

// attributionLedger drives traced operations one at a time, each with
// a fresh task, and records what each was charged.
type attributionLedger struct {
	t     *testing.T
	fs    *FS
	lines []byte
	ops   int
}

// op runs fn with a fresh task and appends its ledger line.
func (l *attributionLedger) op(kind string, fn func(task *trace.Task) error) {
	l.t.Helper()
	task := new(trace.Task)
	if err := fn(task); err != nil {
		l.t.Fatalf("op %d (%s): %v", l.ops, kind, err)
	}
	l.lines = fmt.Appendf(l.lines, "%s %d %d\n", kind, task.DeviceNS(), task.LockWaitNS())
	l.ops++
}

func (l *attributionLedger) write(name string, off uint64, data []byte) {
	l.op("write", func(task *trace.Task) error {
		ino, err := l.fs.Lookup(name)
		if err != nil {
			return err
		}
		return l.fs.WriteTraced(task, ino, off, data)
	})
}

// sync runs a traced Sync and returns the stats delta it caused.
func (l *attributionLedger) sync() (before, after Stats) {
	before = l.fs.Stats()
	l.op("sync", func(task *trace.Task) error { return l.fs.SyncTraced(task) })
	return before, l.fs.Stats()
}

// TestAttributionGolden replays a fixed single-goroutine traced op
// stream that reaches every lfs path charging device time to the
// calling operation: the [jump][data][record] journal fast path, the
// re-anchor path, a policy checkpoint, the fanned multi-class flush
// (Concurrency 4 over 4 affinity classes), inline cleaning under space
// pressure, HeatFile, and — after a remount with a cold inode cache —
// inode and read-modify-write reads. It asserts the stream reached each
// path, then checks the ledger of per-op device and lock-wait time
// through its hash.
func TestAttributionGolden(t *testing.T) {
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 32,
		WritebackBlocks:  8,
		CheckpointEvery:  256,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	fs := testFS(t, 1024, p)
	tr := trace.New(trace.DefaultBuffer)
	fs.Device().SetTracer(tr)
	l := &attributionLedger{t: t, fs: fs}

	const classes = 4
	var names []string
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("f%02d", i)
		names = append(names, name)
		l.op("create", func(task *trace.Task) error {
			_, err := fs.CreateTraced(task, name, uint8(i%classes))
			return err
		})
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("h%d", i)
		l.op("create", func(task *trace.Task) error {
			_, err := fs.CreateTraced(task, name, uint8(1+i))
			return err
		})
		l.write(name, 0, payload(byte(0x80+i), (2+i)*device.DataBytes))
	}
	// Cold files: written once and never touched again, so after the
	// remount below their inodes are not in the cache.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("c%d", i)
		l.op("create", func(task *trace.Task) error {
			_, err := fs.CreateTraced(task, name, uint8(3*i))
			return err
		})
		l.write(name, 0, payload(byte(0x90+i), 2*device.DataBytes))
	}
	fastPath, policyCkpt := 0, 0
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			// Two affinity-0 files, under the write-back threshold:
			// with one dirty class the affinity-0 buffer rides the
			// record's own command.
			for i := 0; i < 2*classes; i += classes {
				l.write(names[i], 0, payload(byte(round), (1+round%2)*device.DataBytes))
			}
		} else {
			for i, name := range names {
				l.write(name, uint64(round%2)*device.DataBytes, payload(byte(round*16+i), (1+i%3)*device.DataBytes))
			}
		}
		before, after := l.sync()
		if round%2 == 0 && after.JournalRecords == before.JournalRecords+1 &&
			after.JournalReanchors == before.JournalReanchors &&
			after.Checkpoints == before.Checkpoints && after.GroupCommits > before.GroupCommits {
			fastPath++
		}
		if round > 0 && after.Checkpoints > before.Checkpoints &&
			after.CleanerPasses == before.CleanerPasses && after.CheckpointFallbacks == before.CheckpointFallbacks {
			policyCkpt++
		}
		if round == 4 {
			l.op("heat", func(task *trace.Task) error {
				_, err := fs.HeatFileTraced(task, "h0")
				return err
			})
		}
		if round == 29 {
			// A cooperative cleaning round leaves its emptied segments
			// gated, so the heat below first checkpoints to release
			// them; and its 9 freshly written blocks cross the
			// write-back threshold while the heat flushes them.
			fs.CleanStep(fs.FreeSegments() + 2)
			l.write("h1", 0, payload(0x88, 9*device.DataBytes))
			before := fs.Stats()
			l.op("heat", func(task *trace.Task) error {
				_, err := fs.HeatFileTraced(task, "h1")
				return err
			})
			if fs.Stats().Checkpoints == before.Checkpoints {
				t.Error("heat found no cleaner-gated segments to release")
			}
		}
		if round == 20 {
			l.op("rename", func(task *trace.Task) error { return fs.RenameTraced(task, "f15", "f15r") })
			names[15] = "f15r"
			// Nothing appended since the last record: this record
			// lands directly in the promise slot.
			l.sync()
		}
	}

	// Remount: the inode cache starts cold, so the next writes, reads
	// and deletes load inodes (and partial overwrites old blocks) from
	// the device on the calling operation's task.
	mfs, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	l.fs = mfs
	l.write("c0", 100, payload(0xA0, 300))
	for i, name := range names[4:10] {
		l.write(name, 100, payload(byte(0xB0+i), 300))
	}
	for _, name := range append([]string{"c2"}, names[10:14]...) {
		l.op("read", func(task *trace.Task) error {
			ino, err := mfs.Lookup(name)
			if err != nil {
				return err
			}
			buf := make([]byte, 2*device.DataBytes)
			_, err = mfs.ReadTraced(task, ino, 0, buf)
			return err
		})
	}
	l.op("delete", func(task *trace.Task) error { return mfs.DeleteTraced(task, "c1") })
	l.op("delete", func(task *trace.Task) error { return mfs.DeleteTraced(task, names[14]) })
	l.sync()

	if fastPath == 0 {
		t.Error("stream never took the [jump][data][record] fast path")
	}
	if policyCkpt == 0 {
		t.Error("stream never wrote a policy checkpoint")
	}
	if fs.Stats().JournalReanchors == 0 {
		t.Error("stream never re-anchored the journal")
	}
	if fs.Stats().HeatedFiles != 2 {
		t.Errorf("heated %d files, want 2", fs.Stats().HeatedFiles)
	}
	fanned, inline := 0, 0
	for _, s := range tr.Spans() {
		switch {
		case s.Name == "write-fanout" && s.V1 == classes:
			fanned++
		case s.Name == "clean-inline":
			inline++
		}
	}
	if fanned == 0 {
		t.Error("stream never fanned a flush over 4 classes")
	}
	if inline == 0 {
		t.Error("stream never cleaned inline")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("stream overflowed the span ring (%d dropped)", tr.Dropped())
	}
	sum := sha256.Sum256(l.lines)
	if got := hex.EncodeToString(sum[:]); got != attributionSHA256 {
		t.Fatalf("attribution ledger of %d ops: SHA-256 %s, want %s", l.ops, got, attributionSHA256)
	}
}
