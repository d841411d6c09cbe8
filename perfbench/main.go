// Command perfbench is the repository benchmark. It builds the raw
// device or the striped array, formats lfs, generates a workload's op
// stream from a seed, replays it from one closed-loop client through
// the layers' public functions, checks every result, and prints the
// metrics as one JSON object on the last line of standard output (a
// readable report goes to standard error).
//
//	perfbench --workload serve-read --seed 1 --seconds 10 --trace 0
//
// A run is a sequence of episodes, each a complete set-up and measured
// phase in a child process of its own, so every episode starts from a
// fresh heap and its peak RSS is its own. The episodes cycle over four
// op streams generated from the seed; the first episode of each stream
// also remounts and reads back every file. Episodes repeat until the
// measured phases add up to --seconds. Seed-determined figures (virtual
// time, counts) are averaged over the streams; host figures are medians
// over episodes, or over measurement windows for the per-op host rates.
//
// --trace 0 reports the end-to-end metrics of untraced episodes.
// --trace 1 alternates rounds of untraced and traced episodes and
// reports the per-layer metrics of the traced ones, plus the tracing
// overhead and the untraced per-op wall-time percentiles;
// the spans of the last traced episode are written to --spans.
// --cpuprofile writes a CPU profile of the first traced episode, for
// `go tool pprof -top`.
//
// Two clocks are reported. Host figures are the simulator's own wall
// clock, CPU and memory; virtual figures are the modelled device's
// sim.Clock. The bounded host times are divided by the CPU time of a
// reference kernel timed before every episode (refkernel.go), which
// cancels most of a shared host's drift in speed. See README.md for
// the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// Run shape: episode i replays stream i mod streams, generated from
// seed*streams + i mod streams, so a run covers several op streams and
// its figures depend less on the draw of any one of them. Episodes
// repeat until the measured phases add up to --seconds and every
// stream has run (untraced and, with --trace 1, traced); no new
// episode starts after maxRun, so a run ends well inside three minutes.
const (
	streams = 4
	maxRun  = 120 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// episodeOut is what one episode process reports to the run.
type episodeOut struct {
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Fingerprint string   `json:"fingerprint"`
	MeasuredNS  int64    `json:"measured_ns"`
	HostNS      []int64  `json:"host_ns"`
	Windows     []window `json:"windows"`
	E2E         values   `json:"e2e"`
	Report      values   `json:"report"`
	Layers      values   `json:"layers,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: serve-read, ingest-steady or audit-heat")
	seed := flag.Uint64("seed", 1, "seed of the generated op stream")
	seconds := flag.Float64("seconds", 10, "measured seconds to accumulate over episodes")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced episodes")
	spans := flag.String("spans", "", "span dump of the last traced episode (default .bench_build/spans/<workload>-<seed>.tsv)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the first traced episode to this file")
	child := flag.Bool("episode", false, "run a single episode and print its raw figures (used by the run itself)")
	check := flag.Bool("check", true, "with --episode: remount and read back every file at the end")
	flag.Parse()

	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == *name {
			def = &workloadDefs[i]
		}
	}
	if def == nil || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-read|ingest-steady|audit-heat, --trace 0|1 and --seconds > 0")
		return 2
	}
	if *child {
		return runEpisode(def, *seed, *traceMode == 1, *check, *spans, *cpuprofile)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", def.name, *seed))
	}
	return runAll(def, *seed, *seconds, *traceMode == 1, *spans, *cpuprofile)
}

// runEpisode runs one episode in this process and prints its figures
// as one JSON line.
func runEpisode(def *workloadDef, seed uint64, traced, check bool, spans, cpuprofile string) int {
	// One P: the simulator's goroutines (worker planes, device passes)
	// take turns on a single CPU. Whether a second CPU of a shared host
	// is free to run them (and to spin idle waiting for them) otherwise
	// moves CPU per op by up to 1.4x; the worker planes' virtual-time
	// model is unaffected, which the fingerprint check confirms.
	runtime.GOMAXPROCS(1)
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}()
	}
	e := newEpisode(seed, traced, check)
	if err := def.run(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	out := episodeOut{
		Attempted:   e.c.attempted,
		Failed:      e.c.failed,
		Fingerprint: fingerprint(e),
		MeasuredNS:  int64(e.m.wall),
		HostNS:      e.c.hostNS,
		Windows:     e.m.windows,
		E2E:         endToEnd(e),
		Report:      reportOnly(e),
	}
	if traced {
		out.Layers = perLayer(e)
		if spans != "" {
			if err := e.rec.write(spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// spawn runs one episode in a child process and waits for it.
func spawn(def *workloadDef, seed uint64, traced, check bool, spans, cpuprofile string) (episodeOut, error) {
	var out episodeOut
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"--episode", "--workload", def.name, "--seed", strconv.FormatUint(seed, 10), "--trace", tr,
		"--check=" + strconv.FormatBool(check)}
	if traced {
		args = append(args, "--spans", spans, "--cpuprofile", cpuprofile)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("episode process: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("episode output: %w", err)
	}
	return out, nil
}

// runAll repeats episodes, checks they agree, and prints the result.
func runAll(def *workloadDef, seed uint64, seconds float64, traced bool, spans, cpuprofile string) int {
	var (
		res              = result{Correct: true}
		plain, tracedE2E [streams][]values // end-to-end values, untraced and traced episodes
		withTrace        [streams][]values // per-layer values of traced episodes
		reports          [streams][]values // report-only values of untraced episodes
		fps              [streams]string
		hostNS           []int64  // per-op host times of untraced episodes
		wins, tracedWins []window // host-cost windows, untraced and traced
		nPlain, nTraced  int
		measured         time.Duration
		start            = time.Now()
		ref              = newRefKernel()
		refNS            []int64 // reference samples, one before each episode and one after the last
	)
	for i := 0; ; i++ {
		refNS = append(refNS, ref.sample())
		k := i % streams
		tr := traced && (i/streams)%2 == 1
		prof := ""
		if tr && nTraced == 0 {
			prof = cpuprofile
		}
		ep, err := spawn(def, seed*streams+uint64(k), tr, i < streams, spans, prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s episode %d: %v\n", def.name, i, err)
			return 1
		}
		res.Attempted += ep.Attempted
		res.Failed += ep.Failed
		if fps[k] == "" {
			fps[k] = ep.Fingerprint
		} else if ep.Fingerprint != fps[k] {
			fmt.Fprintf(os.Stderr, "perfbench: episode %d (stream %d, traced=%v) diverged from the stream's first:\n%s\nvs\n%s\n", i, k, tr, ep.Fingerprint, fps[k])
			res.Correct = false
		}
		if tr {
			nTraced++
			tracedE2E[k] = append(tracedE2E[k], ep.E2E)
			withTrace[k] = append(withTrace[k], ep.Layers)
			tracedWins = append(tracedWins, ep.Windows...)
		} else {
			nPlain++
			plain[k] = append(plain[k], ep.E2E)
			reports[k] = append(reports[k], ep.Report)
			hostNS = append(hostNS, ep.HostNS...)
			wins = append(wins, ep.Windows...)
		}
		measured += time.Duration(ep.MeasuredNS)
		enough := measured.Seconds() >= seconds && nPlain >= streams
		if traced {
			enough = enough && nTraced >= streams
		}
		if enough || time.Since(start) > maxRun {
			break
		}
	}
	refNS = append(refNS, ref.sample())
	refStep := float64(percentile(refNS, 0.50)) / refSteps
	if res.Failed > 0 {
		res.Correct = false
	}
	for k := range streams {
		if !agree(append(append([]values{}, plain[k]...), tracedE2E[k]...)) || !agree(withTrace[k]) || !agree(reports[k]) {
			res.Correct = false
		}
	}

	out := aggregate(plain[:])
	host := hostRates(wins, refStep)
	maps.Copy(out, host.e2e)
	// Set-up time is reported at the reference speed, like the per-op
	// host times; the raw median goes to the per-layer set.
	rawSetup := out["setup_s"].Value
	out["setup_s"] = metric{rawSetup * refNominalStep / refStep, "s"}
	host.raw["host.setup_raw_s"] = metric{rawSetup, "s"}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d untraced episodes over %d streams, %d host-cost windows, %d measured ops\n",
		def.name, seed, nPlain, streams, len(wins), len(hostNS))
	printSorted(out)
	printSorted(host.raw)
	printSorted(aggregate(reports[:]))
	if traced {
		layers := aggregate(withTrace[:])
		maps.Copy(layers, host.raw)
		tracedHost := hostRates(tracedWins, refStep)
		overhead := host.raw["host.ops_per_s"].Value/tracedHost.raw["host.ops_per_s"].Value - 1
		layers["host.trace_overhead_pct"] = metric{100 * overhead, "%"}
		layers["host.op_p50_us"] = metric{usNS(percentile(hostNS, 0.50)), "us"}
		layers["host.op_p99_us"] = metric{usNS(percentile(hostNS, 0.99)), "us"}
		fmt.Fprintf(os.Stderr, "per-layer (%d traced episodes; spans in %s):\n", nTraced, spans)
		printSorted(layers)
		out = layers
	}
	res.Metrics = out
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// hostFigures are the per-op host figures of a set of windows.
type hostFigures struct {
	e2e map[string]metric // bounded: relative to the reference step
	raw map[string]metric // per-layer: the raw rates and the step itself
}

// hostRates takes the medians over windows of CPU per op, wall time
// per op (as ops per second for the raw figure) and heap bytes per op,
// and expresses the times per op in reference steps of refStep ns.
func hostRates(wins []window, refStep float64) hostFigures {
	var wall, cpu, alloc []float64
	for _, w := range wins {
		ops := float64(w.Ops)
		wall = append(wall, float64(w.WallNS)/ops)
		cpu = append(cpu, float64(w.CPUNS)/ops)
		alloc = append(alloc, float64(w.Alloc)/1024/ops)
	}
	wallNS, cpuNS := median(wall), median(cpu)
	return hostFigures{
		e2e: map[string]metric{
			"host_cpu_per_op_ref":  {cpuNS / refStep, "ref"},
			"host_wall_per_op_ref": {wallNS / refStep, "ref"},
			"alloc_kb_per_op":      {median(alloc), "KiB"},
		},
		raw: map[string]metric{
			"host.cpu_us_per_op": {cpuNS / 1e3, "us"},
			"host.ops_per_s":     {ratio(1e9, wallNS), "1/s"},
			"host.ref_step_us":   {refStep / 1e3, "us"},
		},
	}
}

// agree reports whether every seed-determined value repeats exactly
// across the episodes.
func agree(eps []values) bool {
	ok := true
	for _, vs := range eps[min(1, len(eps)):] {
		for j, v := range vs {
			if w := eps[0][j]; v.Det && v.V != w.V {
				fmt.Fprintf(os.Stderr, "perfbench: %s = %v in one episode, %v in another\n", v.Name, v.V, w.V)
				ok = false
			}
		}
	}
	return ok
}

// aggregate combines one kind of values over the episodes of every
// stream: a seed-determined value (the same in every episode of a
// stream) is averaged over the streams, any other is the median over
// all episodes.
func aggregate(byStream [][]values) map[string]metric {
	out := make(map[string]metric)
	var all []values
	for _, eps := range byStream {
		all = append(all, eps...)
	}
	if len(all) == 0 {
		return out
	}
	for j, v := range all[0] {
		var col []float64
		if v.Det {
			for _, eps := range byStream {
				if len(eps) > 0 {
					col = append(col, eps[0][j].V)
				}
			}
			out[v.Name] = metric{mean(col), v.Unit}
			continue
		}
		for _, vs := range all {
			col = append(col, vs[j].V)
		}
		out[v.Name] = metric{median(col), v.Unit}
	}
	return out
}

func printSorted(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
