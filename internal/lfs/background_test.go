package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sero/internal/device"
)

// Tests for background incremental cleaning: the phased pass that
// releases fs.mu for its copy window, the clean-pin staleness
// protocol, the watermark goroutine, and the crash behaviour of a
// pass interrupted at arbitrary points.

// waitUntil polls cond (1ms period) until it holds or the deadline
// passes, reporting the final state.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// buildChurnFS builds an FS whose free pool sits near the cleaning
// thresholds with dead blocks spread across many segments — churn the
// watermark goroutine can feed on.
func buildChurnFS(tb testing.TB, wm int) (*FS, []Ino) {
	tb.Helper()
	p := Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 32,
		WritebackBlocks:  32,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
		CleanWatermark:   wm,
	}
	fs := testFS(tb, 2048, p) // 63 log segments
	inos := make([]Ino, 48)
	var err error
	for i := range inos {
		if inos[i], err = fs.Create(fmt.Sprintf("c%02d", i), 0); err != nil {
			tb.Fatal(err)
		}
		if err = fs.WriteFile(inos[i], payload(byte(i), 16*device.DataBytes)); err != nil {
			tb.Fatal(err)
		}
	}
	if err = fs.Sync(); err != nil {
		tb.Fatal(err)
	}
	for i, ino := range inos {
		if err = fs.WriteFile(ino, payload(byte(64+i), 16*device.DataBytes)); err != nil {
			tb.Fatal(err)
		}
		if i%8 == 7 {
			if err = fs.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err = fs.Sync(); err != nil {
		tb.Fatal(err)
	}
	return fs, inos
}

// cleaningInFlight reports whether a cleaning pass currently owns the
// cleaner (test-side observability for the handshakes below).
func (fs *FS) cleaningInFlight() bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.cleaning
}

// appendStream appends fresh synced blocks with client think-time and
// returns the sum of per-operation virtual clock deltas plus the worst
// single operation. Latency is the sum of deltas, not end minus start:
// virtual time a concurrent pass charges during think-time is cleaning
// the foreground never waited for, while anything landing inside an
// operation's window — lock waits behind plan/commit (or behind a
// whole exclusive pass), copy drains — is attributed to it.
func appendStream(tb testing.TB, fs *FS, ino Ino, rounds int) (total, worst time.Duration) {
	tb.Helper()
	const blocksPerRound = 2
	const thinkTime = 6 * time.Millisecond
	clk := fs.Device().Clock()
	for r := 0; r < rounds; r++ {
		t0 := clk.Now()
		data := payload(byte(128+r), blocksPerRound*device.DataBytes)
		if err := fs.Write(ino, uint64(r*blocksPerRound)*device.DataBytes, data); err != nil {
			tb.Fatalf("round %d write: %v (free=%d)", r, err, fs.FreeSegments())
		}
		if err := fs.Sync(); err != nil {
			tb.Fatalf("round %d sync: %v (free=%d)", r, err, fs.FreeSegments())
		}
		d := clk.Now() - t0
		total += d
		if d > worst {
			worst = d
		}
		time.Sleep(thinkTime)
	}
	return total, worst
}

// TestBackgroundCleanerMaintainsWatermark drives a churn workload with
// the watermark policy on and checks that the background goroutine
// actually ran and that, once the dust settles, the free pool is back
// above the watermark without any explicit Clean call.
func TestBackgroundCleanerMaintainsWatermark(t *testing.T) {
	const wm = 6
	fs, inos := buildChurnFS(t, wm)
	defer fs.Close()
	// Keep churning until the background cleaner has demonstrably run;
	// every allocation at or below the watermark kicks it.
	churn := 0
	ok := waitUntil(10*time.Second, func() bool {
		for r := 0; r < 4; r++ {
			ino := inos[churn%len(inos)]
			churn++
			if err := fs.WriteFile(ino, payload(byte(200+churn), 16*device.DataBytes)); err != nil {
				t.Fatalf("churn write: %v", err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatalf("churn sync: %v", err)
			}
		}
		return fs.Stats().CleanerBgRuns > 0
	})
	if !ok {
		t.Fatalf("background cleaner never ran: %+v (free=%d)", fs.Stats(), fs.FreeSegments())
	}
	// Sync converts what the cleaner gated; the pool must recover to
	// the watermark without explicit Clean.
	ok = waitUntil(10*time.Second, func() bool {
		if err := fs.Sync(); err != nil {
			t.Fatalf("settle sync: %v", err)
		}
		return fs.FreeSegments() >= wm
	})
	if !ok {
		t.Fatalf("free pool never recovered to %d: free=%d stats=%+v",
			wm, fs.FreeSegments(), fs.Stats())
	}
	for i, ino := range inos[:4] {
		if _, err := fs.ReadFile(ino); err != nil {
			t.Fatalf("file %d unreadable after background cleaning: %v", i, err)
		}
	}
}

// TestCommitDropsStaleMoves is the clean-pin staleness contract,
// driven white-box: plan a pass, invalidate one victim's blocks
// between plan and copy exactly as a concurrent foreground delete
// would, and verify the commit drops just those moves while everything
// else relocates and the FS stays mountable.
func TestCommitDropsStaleMoves(t *testing.T) {
	fs := buildFragmentedFS(t, 2)
	var cs CleanStats
	fs.mu.Lock()
	victims := fs.pickVictims(4, &cs)
	if len(victims) == 0 {
		t.Fatal("no victims in the fragmented population")
	}
	plan := fs.planVictimsLocked(nil, victims, &cs)
	if plan == nil {
		t.Fatal("plan failed")
	}
	var moves int
	var staleIno Ino
	for vi := range plan.refs {
		for _, ref := range plan.refs[vi] {
			moves++
			if staleIno == 0 {
				staleIno = ref.ino
			}
		}
	}
	if moves == 0 || staleIno == 0 {
		t.Fatalf("plan holds no data moves")
	}
	staleName := fs.names[staleIno]
	var staleMoves int
	for vi := range plan.refs {
		for _, ref := range plan.refs[vi] {
			if ref.ino == staleIno {
				staleMoves++
			}
		}
	}
	fs.mu.Unlock()

	// "Mid-copy", a foreground client deletes the file: its blocks go
	// dead while the device-level copy is still running.
	if err := fs.Delete(staleName); err != nil {
		t.Fatal(err)
	}

	results := fs.dev.MoveGroups(plan.groups, plan.workers)
	fs.mu.Lock()
	fs.commitVictimsLocked(nil, plan, results, &cs)
	fs.mu.Unlock()

	if cs.MovesInvalidated != staleMoves {
		t.Fatalf("invalidated %d moves, want %d (the deleted file's)",
			cs.MovesInvalidated, staleMoves)
	}
	if cs.BlocksCopied == 0 {
		t.Fatal("commit dropped everything, not just the stale moves")
	}
	if st := fs.Stats(); st.CleanerStaleMoves != uint64(staleMoves) {
		t.Fatalf("stats count %d stale moves, want %d", st.CleanerStaleMoves, staleMoves)
	}
	// Everything else must have survived the interrupted pass, in
	// memory and across a replayed mount.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("f%02d", i)
		if name == staleName {
			if _, err := fs2.Lookup(name); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted file %s resurrected: %v", name, err)
			}
			continue
		}
		ino, lerr := fs2.Lookup(name)
		if lerr != nil {
			t.Fatalf("%s lost: %v", name, lerr)
		}
		got, rerr := fs2.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, fragWant(i)) {
			t.Fatalf("%s corrupted by interrupted clean: %v", name, rerr)
		}
	}
}

// TestCloseIdempotent pins Close's contract: stopping twice is fine,
// and the FS keeps working afterwards — only the watermark policy
// retires, not the file system.
func TestCloseIdempotent(t *testing.T) {
	fs, inos := buildChurnFS(t, 4)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(inos[0], payload(7, 8*device.DataBytes)); err != nil {
		t.Fatalf("write after Close: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after Close: %v", err)
	}
	if cs := fs.Clean(fs.FreeSegments() + 1); cs.SegmentsCleaned == 0 {
		t.Logf("explicit clean after Close reclaimed nothing (ok if compact): %+v", cs)
	}
	// WriteFile does not truncate: the 16-block file keeps its size,
	// with the first 8 blocks overwritten.
	got, err := fs.ReadFile(inos[0])
	if err != nil || len(got) != 16*device.DataBytes ||
		!bytes.Equal(got[:8*device.DataBytes], payload(7, 8*device.DataBytes)) {
		t.Fatalf("read after Close: %v (%d bytes)", err, len(got))
	}
}

// TestCleanWatermarkValidation pins the option's error behaviour.
func TestCleanWatermarkValidation(t *testing.T) {
	p := smallParams()
	p.CleanWatermark = -1
	dp := device.DefaultParams(1024)
	if _, err := New(device.New(dp), p); err == nil {
		t.Fatal("negative watermark accepted")
	}
	p.CleanWatermark = 1 << 20
	if _, err := New(device.New(dp), p); err == nil {
		t.Fatal("watermark beyond the segment population accepted")
	}
}

// TestConcurrentFSStressBackgroundClean is the 16-goroutine stress
// test with the background cleaner in the mix: appends, overwrites,
// reads, syncs, deletes and explicit cleans run concurrently with
// watermark-driven passes whose copy phase holds no FS lock. Run
// under -race this is the phased cleaner's concurrency contract.
func TestConcurrentFSStressBackgroundClean(t *testing.T) {
	const (
		workers    = 16
		filesPerG  = 3
		roundsPerG = 12
	)
	p := Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 32,
		WritebackBlocks:  32,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
		CleanWatermark:   6,
	}
	fs := testFS(t, 8192, p)
	defer fs.Close()

	type fileState struct {
		name string
		ino  Ino
		want []byte
	}
	finals := make([][]fileState, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + g)))
			files := make([]fileState, filesPerG)
			for i := range files {
				name := fmt.Sprintf("b%02d-f%d", g, i)
				ino, err := fs.Create(name, uint8(g%4))
				if err != nil {
					t.Errorf("g%d create %s: %v", g, name, err)
					return
				}
				files[i] = fileState{name: name, ino: ino}
			}
			for round := 0; round < roundsPerG; round++ {
				f := &files[rng.Intn(filesPerG)]
				switch op := rng.Intn(10); {
				case op < 5: // overwrite: churn the cleaner feeds on
					data := payload(byte(g*16+round), (1+rng.Intn(4))*device.DataBytes)
					if err := fs.WriteFile(f.ino, data); err != nil {
						t.Errorf("g%d write %s: %v", g, f.name, err)
						return
					}
					if len(data) > len(f.want) {
						f.want = append([]byte(nil), data...)
					} else {
						copy(f.want, data)
					}
				case op < 8: // read back
					got, err := fs.ReadFile(f.ino)
					if err != nil {
						t.Errorf("g%d read %s: %v", g, f.name, err)
						return
					}
					if !bytes.Equal(got, f.want) {
						t.Errorf("g%d read %s: torn content (%d vs %d bytes)",
							g, f.name, len(got), len(f.want))
						return
					}
				case op < 9: // sync, occasionally racing an explicit clean
					if err := fs.Sync(); err != nil {
						t.Errorf("g%d sync: %v", g, err)
						return
					}
					if rng.Intn(3) == 0 {
						fs.Clean(fs.FreeSegments() + 1)
					}
				default: // delete and recreate, invalidating mid-copy moves
					if err := fs.Delete(f.name); err != nil {
						t.Errorf("g%d delete %s: %v", g, f.name, err)
						return
					}
					ino, err := fs.Create(f.name, uint8(g%4))
					if err != nil {
						t.Errorf("g%d recreate %s: %v", g, f.name, err)
						return
					}
					f.ino, f.want = ino, nil
				}
			}
			finals[g] = files
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for g, files := range finals {
		for _, f := range files {
			got, err := fs.ReadFile(f.ino)
			if err != nil {
				t.Fatalf("g%d final read %s: %v", g, f.name, err)
			}
			if !bytes.Equal(got, f.want) {
				t.Fatalf("g%d final read %s: content lost", g, f.name)
			}
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// The whole history must also replay cleanly.
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	for g, files := range finals {
		for _, f := range files {
			ino, lerr := fs2.Lookup(f.name)
			if lerr != nil {
				t.Fatalf("g%d file %s lost in replay: %v", g, f.name, lerr)
			}
			got, rerr := fs2.ReadFile(ino)
			if rerr != nil || !bytes.Equal(got, f.want) {
				t.Fatalf("g%d file %s content lost in replay: %v", g, f.name, rerr)
			}
		}
	}
}

// TestCrashMidBackgroundClean is the recycled-block property for the
// background cleaner: a workload churns with watermark cleaning on
// while the crash recorder taps every committed block write; crashing
// at boundaries sampled across the whole recording — including points
// in the middle of a background pass's copy or commit — must always
// mount to an acked state. A violation here would mean a background pass let fresh data
// overwrite blocks a crash-mount still resolves through.
func TestCrashMidBackgroundClean(t *testing.T) {
	const devBlocks = 1024
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  8,
		CheckpointEvery:  64,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      2,
		CleanWatermark:   5,
	}
	dev := quietDev(devBlocks)
	rec := recordWrites(dev)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[string][]byte)
	var acks []fsSnapshot
	const files = 6
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, cerr := fs.Create(name, uint8(i%2)); cerr != nil {
			t.Fatal(cerr)
		}
		model[name] = nil
	}
	sync := func() {
		if serr := fs.Sync(); serr != nil {
			t.Fatalf("sync: %v (free=%d)", serr, fs.FreeSegments())
		}
		acks = append(acks, snapshotModel(model, rec.count()))
	}
	round := 0
	churn := func() {
		name := fmt.Sprintf("f%d", round%files)
		data := payload(byte(round+1), (4+round%5)*device.DataBytes)
		ino, lerr := fs.Lookup(name)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if werr := fs.WriteFile(ino, data); werr != nil {
			t.Fatalf("round %d write: %v (free=%d)", round, werr, fs.FreeSegments())
		}
		buf := model[name]
		if len(data) > len(buf) {
			buf = append([]byte(nil), data...)
		} else {
			copy(buf, data)
		}
		model[name] = buf
		round++
		sync()
	}
	sync() // anchoring checkpoint
	for round < 40 {
		churn()
	}
	// Make sure crash points actually cover background cleaning; the
	// churn above dips the pool below the watermark, so the kick is
	// guaranteed — wait for the goroutine to have acted on it.
	if !waitUntil(10*time.Second, func() bool {
		if fs.Stats().CleanerBgRuns > 0 {
			return true
		}
		churn()
		return false
	}) {
		t.Fatalf("background cleaner never ran during the crash workload: %+v (free=%d)",
			fs.Stats(), fs.FreeSegments())
	}
	for i := 0; i < 6; i++ {
		churn() // rounds racing the in-flight background pass
	}
	if err := fs.Close(); err != nil { // commits any in-flight pass
		t.Fatal(err)
	}
	dev.SetWriteObserver(nil)

	total := rec.count()
	step := 3
	if testing.Short() {
		step = 11
	}
	if raceDetector {
		step *= 3 // the sweep mounts hundreds of images; keep race CI sane
	}
	for k := 0; k <= total; k += step {
		lastAck := -1
		for i, a := range acks {
			if a.writes <= k {
				lastAck = i
			}
		}
		if lastAck < 0 {
			continue
		}
		crashed := rec.deviceAt(t, devBlocks, k)
		mounted, merr := Mount(crashed, p)
		if merr != nil {
			t.Fatalf("crash at write %d/%d (last ack %d): mount failed: %v",
				k, total, lastAck, merr)
		}
		ok := matchesSnapshot(mounted, acks[lastAck])
		if !ok && lastAck+1 < len(acks) {
			ok = matchesSnapshot(mounted, acks[lastAck+1])
		}
		if !ok {
			t.Fatalf("crash at write %d/%d: mounted state is neither ack %d nor ack %d",
				k, total, lastAck, lastAck+1)
		}
	}
}

// benchmarkAppendDuringClean measures a foreground append stream while
// one large cleaning pass over the fragmented population is in flight.
// In the exclusive baseline the pass holds fs.mu throughout (the
// monolithic cleanLocked), so the first append waits for the entire
// pass — the pre-phased behaviour. In the phased variant the same pass
// runs through Clean, which releases fs.mu for its copy windows, so
// the appends interleave with the relocation and pay at most the brief
// plan/commit windows (plus any copy drain landing inside an append).
func benchmarkAppendDuringClean(b *testing.B, phased bool) {
	const rounds = 8
	for i := 0; i < b.N; i++ {
		fs := buildFragmentedFS(b, 4)
		ino, err := fs.Create("stream", 0)
		if err != nil {
			b.Fatal(err)
		}
		target := fs.FreeSegments() + 16
		done := make(chan CleanStats, 1)
		if phased {
			go func() { done <- fs.Clean(target) }()
			// Handshake: appends start once the pass owns the cleaner —
			// or once it already finished (a fast pass can complete
			// between polls; the stream then just runs unobstructed).
			if !waitUntil(5*time.Second, func() bool {
				if fs.cleaningInFlight() {
					return true
				}
				select {
				case cs := <-done:
					done <- cs // keep it for the post-stream read
					return true
				default:
					return false
				}
			}) {
				b.Fatal("clean pass never started")
			}
		} else {
			started := make(chan struct{})
			go func() {
				fs.mu.Lock()
				close(started) // the pass owns the lock from here on
				cs := fs.cleanLocked(nil, target)
				fs.mu.Unlock()
				done <- cs
			}()
			<-started
		}
		total, worst := appendStream(b, fs, ino, rounds)
		cs := <-done
		if err := fs.Close(); err != nil {
			b.Fatal(err)
		}
		if cs.SegmentsCleaned == 0 || cs.BlocksCopied == 0 {
			b.Fatalf("the in-flight pass did no real work: %+v", cs)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(rounds*2)/1e3, "virt-µs/block")
		b.ReportMetric(float64(worst.Nanoseconds())/1e3, "worst-op-virt-µs")
		b.ReportMetric(float64(cs.BlocksCopied), "cleaner-blocks")
	}
}

// BenchmarkAppendDuringCleanForeground is the exclusive-lock baseline:
// the whole pass runs under fs.mu and the append stream waits for it.
func BenchmarkAppendDuringCleanForeground(b *testing.B) { benchmarkAppendDuringClean(b, false) }

// BenchmarkAppendDuringCleanBackground overlaps the same append stream
// with the phased pass, whose copy phase holds no FS lock.
func BenchmarkAppendDuringCleanBackground(b *testing.B) { benchmarkAppendDuringClean(b, true) }

// TestWorkerContract pins the background worker's contract on the type
// itself: wakes never block, even while a step is running; every halt
// waits for the goroutine to exit, the first one stopping it and a
// concurrent second one just waiting; and no step starts after stop.
func TestWorkerContract(t *testing.T) {
	var w worker
	release := make(chan struct{})
	var steps sync.WaitGroup
	steps.Add(1)
	calls := 0
	step := func(*FS) bool {
		calls++
		steps.Done()
		<-release
		return true // more work: only stop ends the loop
	}
	w.wake(nil, step)
	steps.Wait() // the step is running and parked
	for i := 0; i < 100; i++ {
		w.wake(nil, step) // must not block
	}

	halted := make(chan int, 2)
	go func() { w.halt(true); halted <- 1 }()
	go func() { w.halt(false); halted <- 2 }()
	select {
	case h := <-halted:
		t.Fatalf("halt %d returned while a step was still running", h)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-halted
	<-halted
	select {
	case <-w.done:
	default:
		t.Fatal("halt returned before the goroutine exited")
	}
	if calls != 1 {
		t.Fatalf("%d steps ran, want 1 (no step may start after stop)", calls)
	}
	var idle worker
	idle.halt(true) // a never-armed worker halts as a no-op
}

// TestCloseStopsBothWorkers arms the background cleaner and auditor,
// then closes the FS from several goroutines at once: every Close must
// return only after both goroutines have exited. A kick after Close
// must not arm a worker.
func TestCloseStopsBothWorkers(t *testing.T) {
	p := Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 32,
		WritebackBlocks:  32,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
		CleanWatermark:   8,
		AuditEvery:       16,
	}
	fs := testFS(t, 2048, p)
	ino, err := fs.Create("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	armed := func() bool {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.bgClean.kick != nil && fs.bgAudit.kick != nil
	}
	for i := 0; !armed(); i++ {
		if i == 200 {
			t.Fatal("churn never armed both workers")
		}
		if err := fs.WriteFile(ino, payload(byte(i), 32*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fs.Close(); err != nil {
				t.Error(err)
			}
			for _, done := range []chan struct{}{fs.bgClean.done, fs.bgAudit.done} {
				select {
				case <-done:
				default:
					t.Error("Close returned before a worker exited")
				}
			}
		}()
	}
	wg.Wait()

	// A worker never armed before Close stays unarmed.
	idle := testFS(t, 2048, p)
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	idle.mu.Lock()
	idle.kickCleanerLocked()
	idle.kickAuditorLocked()
	if idle.bgClean.kick != nil || idle.bgAudit.kick != nil {
		t.Error("a kick after Close armed a worker")
	}
	idle.mu.Unlock()
}
