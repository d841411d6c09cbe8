package main

import (
	"os"
	"testing"

	"sero/internal/serve"
)

func TestRunTour(t *testing.T) {
	if err := run(2048, 2, 0, 128, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunTourBlockAtATime(t *testing.T) {
	// The pre-batching write path (writeback=1) must behave
	// identically apart from virtual time.
	if err := run(2048, 1, 1, 128, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunTourCheckpointEverySync(t *testing.T) {
	// ckpt-every=1 reproduces the pre-journal durability behaviour.
	if err := run(2048, 1, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunTourBackgroundCleaner(t *testing.T) {
	// The tour must also work with the watermark cleaner armed.
	if err := run(2048, 2, 0, 128, 6); err != nil {
		t.Fatal(err)
	}
}

func TestBenchServeSmall(t *testing.T) {
	out := t.TempDir() + "/bench.json"
	err := benchServe([]string{
		"-files", "64", "-ops", "512", "-sessions", "1,2",
		"-sync-every", "16", "-burst-every", "64", "-burst-len", "8",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.ValidateJSON(data); err != nil {
		t.Fatalf("recorded report fails the schema check: %v", err)
	}
	rep, err := serve.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Config.Sessions != 1 || rep.Runs[1].Config.Sessions != 2 {
		t.Fatalf("unexpected runs: %+v", rep.Runs)
	}
}

func TestBenchServeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	err := benchServe([]string{
		"-files", "64", "-ops", "256", "-sessions", "1",
		"-cpuprofile", dir + "/cpu.out", "-memprofile", dir + "/mem.out",
		"-out", dir + "/bench.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.out", "mem.out"} {
		st, err := os.Stat(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

func TestBenchServeRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad-sessions":  {"-sessions", "1,zero", "-files", "8", "-ops", "8"},
		"empty-list":    {"-sessions", ",", "-files", "8", "-ops", "8"},
		"zero-seed":     {"-seed", "0", "-files", "8", "-ops", "8"},
		"stray-arg":     {"-files", "8", "extra"},
		"overpartition": {"-sessions", "16", "-files", "4", "-ops", "8"},
	} {
		if err := benchServe(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSessions(t *testing.T) {
	got, err := parseSessions("1, 4,16")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "a", "1,,2"} {
		if _, err := parseSessions(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
