package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sero/internal/device"
	"sero/internal/sim"
	"sero/internal/trace"
)

// span is one timed call at a layer boundary: a client call into lfs
// (or straight into the device, for verify and scan passes), or an lfs
// or core call into device.Dev. Times are host ns since the recorder's
// epoch and virtual ns on the device clock.
type span struct {
	name         int16
	parent       int32 // index of the enclosing span, -1 at top level
	op           int32 // client op the span belongs to
	blocks       int32 // blocks the device call moved (device spans only)
	start, end   int64
	vstart, vend int64
}

// spanNames interns span names; index = span.name.
var spanNames []string

// spanID returns the interned id of name, registering it on first use.
func spanID(name string) int16 {
	for i, n := range spanNames {
		if n == name {
			return int16(i)
		}
	}
	spanNames = append(spanNames, name)
	return int16(len(spanNames) - 1)
}

// recorder keeps the spans of one traced episode in memory. The
// benchmark drives the file system from a single client goroutine and
// disables every background goroutine, so spans nest strictly and need
// no locking.
type recorder struct {
	on    bool
	epoch time.Time
	clock *sim.Clock
	spans []span
	cur   int32 // innermost open span, -1 when none
	op    int32
}

func newRecorder(clock *sim.Clock) *recorder {
	return &recorder{epoch: time.Now(), clock: clock, cur: -1}
}

// begin opens a span (a no-op returning -1 while recording is off).
func (r *recorder) begin(name int16, blocks int) int32 {
	if r == nil || !r.on {
		return -1
	}
	r.spans = append(r.spans, span{
		name: name, parent: r.cur, op: r.op, blocks: int32(blocks),
		start:  int64(time.Since(r.epoch)),
		vstart: int64(r.clock.Now()),
	})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.end = int64(time.Since(r.epoch))
	s.vend = int64(r.clock.Now())
	r.cur = s.parent
}

// layerTotals are one span name's aggregate over an episode.
type layerTotals struct {
	calls   int64
	hostNS  int64 // inclusive host time
	childNS int64 // host time inside direct child spans
	virtNS  int64
	blocks  int64
}

// totals aggregates the recorded spans by name.
func (r *recorder) totals() map[string]*layerTotals {
	out := make(map[string]*layerTotals)
	get := func(id int16) *layerTotals {
		t := out[spanNames[id]]
		if t == nil {
			t = &layerTotals{}
			out[spanNames[id]] = t
		}
		return t
	}
	for _, s := range r.spans {
		t := get(s.name)
		t.calls++
		t.hostNS += s.end - s.start
		t.virtNS += s.vend - s.vstart
		t.blocks += int64(s.blocks)
		if s.parent >= 0 {
			get(r.spans[s.parent].name).childNS += s.end - s.start
		}
	}
	return out
}

// write dumps the spans as tab-separated lines (op, id, parent, name,
// host start/end ns, virtual start/end ns, blocks).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns\tvstart_ns\tvend_ns\tblocks")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s.op, i, s.parent, spanNames[s.name], s.start, s.end, s.vstart, s.vend, s.blocks)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Device-layer span names, one per decorated method.
var (
	spMRS         = spanID("device.mrs")
	spReadFanned  = spanID("device.read_blocks_fanned")
	spWriteBlocks = spanID("device.write_blocks")
	spWriteRuns   = spanID("device.write_runs_fanned")
	spMoveGroups  = spanID("device.move_groups")
	spLineBatch   = spanID("device.write_line_batch")
	spHeatLine    = spanID("device.heat_line")
	spVerifyOff   = spanID("device.verify_line_off_clock")
	spVerifyLines = spanID("device.verify_lines")
	spScan        = spanID("device.scan")
)

// deviceMethods lists the decorated methods in report order.
var deviceMethods = []string{
	"mrs", "read_blocks_fanned", "write_blocks", "write_runs_fanned", "move_groups",
	"write_line_batch", "heat_line", "verify_line_off_clock", "verify_lines", "scan",
}

// tracedDev decorates a device.Dev with a span per block-I/O and line
// call. Every other method goes straight to the wrapped device.
type tracedDev struct {
	device.Dev
	rec *recorder
}

func (d *tracedDev) MRS(pba uint64) ([]byte, error) {
	s := d.rec.begin(spMRS, 1)
	defer d.rec.end(s)
	return d.Dev.MRS(pba)
}

func (d *tracedDev) MRSTraced(task *trace.Task, pba uint64) ([]byte, error) {
	s := d.rec.begin(spMRS, 1)
	defer d.rec.end(s)
	return d.Dev.MRSTraced(task, pba)
}

func (d *tracedDev) ReadBlocksFanned(pbas []uint64, workers int) ([][]byte, []error) {
	s := d.rec.begin(spReadFanned, len(pbas))
	defer d.rec.end(s)
	return d.Dev.ReadBlocksFanned(pbas, workers)
}

func (d *tracedDev) WriteBlocks(start uint64, blocks [][]byte) error {
	s := d.rec.begin(spWriteBlocks, len(blocks))
	defer d.rec.end(s)
	return d.Dev.WriteBlocks(start, blocks)
}

func (d *tracedDev) WriteBlocksTraced(task *trace.Task, start uint64, blocks [][]byte) error {
	s := d.rec.begin(spWriteBlocks, len(blocks))
	defer d.rec.end(s)
	return d.Dev.WriteBlocksTraced(task, start, blocks)
}

func runBlocks(runs []device.WriteRun) int {
	n := 0
	for _, r := range runs {
		n += len(r.Blocks)
	}
	return n
}

func (d *tracedDev) WriteRunsFanned(runs []device.WriteRun, workers int) []error {
	s := d.rec.begin(spWriteRuns, runBlocks(runs))
	defer d.rec.end(s)
	return d.Dev.WriteRunsFanned(runs, workers)
}

func (d *tracedDev) WriteRunsFannedTraced(task *trace.Task, runs []device.WriteRun, workers int) []error {
	s := d.rec.begin(spWriteRuns, runBlocks(runs))
	defer d.rec.end(s)
	return d.Dev.WriteRunsFannedTraced(task, runs, workers)
}

func (d *tracedDev) MoveGroups(groups [][]device.BlockMove, workers int) []device.MoveResult {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	s := d.rec.begin(spMoveGroups, n)
	defer d.rec.end(s)
	return d.Dev.MoveGroups(groups, workers)
}

func (d *tracedDev) WriteLineBatch(start uint64, logN uint8, blocks [][]byte) error {
	s := d.rec.begin(spLineBatch, len(blocks))
	defer d.rec.end(s)
	return d.Dev.WriteLineBatch(start, logN, blocks)
}

func (d *tracedDev) HeatLine(start uint64, logN uint8) (device.LineInfo, error) {
	s := d.rec.begin(spHeatLine, 1<<logN)
	defer d.rec.end(s)
	return d.Dev.HeatLine(start, logN)
}

func (d *tracedDev) VerifyLineOffClock(start uint64) (device.VerifyReport, time.Duration, error) {
	s := d.rec.begin(spVerifyOff, 0)
	defer d.rec.end(s)
	return d.Dev.VerifyLineOffClock(start)
}

func (d *tracedDev) VerifyLines(starts []uint64, workers int) []device.VerifyOutcome {
	s := d.rec.begin(spVerifyLines, 0)
	defer d.rec.end(s)
	return d.Dev.VerifyLines(starts, workers)
}

func (d *tracedDev) Scan() ([]device.LineInfo, []uint64, error) {
	s := d.rec.begin(spScan, d.Dev.Blocks())
	defer d.rec.end(s)
	return d.Dev.Scan()
}
