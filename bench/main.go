// Command bench is the repository's one benchmark: five workloads that each
// stress a different part of the engine, eight end-to-end metrics measured
// over a workload's whole measured phase, and per-layer metrics taken from
// outside the engine. See README.md in this directory.
//
// Run it from this directory (bench/run.sh does, after building):
//
//	go run . -workload scan_decode -seed 1
//	go run . -workload all -seed 1
//	go run . -workload dml_write -seed 1 -trace 1 -spans spans.json
//	go run . -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// scale holds every size of the benchmark. "ref" is what BENCHMARK.json and
// the committed baseline use; "tiny" exists for the unit tests.
type scale struct {
	scanGroups, scanPool, scanReps int // lineitem row groups, buffer-pool groups, template repeats per round
	joinGroups, joinReps           int
	deltaGroups, deltaReps         int
	dmlGroups, dmlCycles           int
	wireGroups, wireStmts          int           // statements per round
	setups                         int           // set-ups per run at least; setup_s is their median
	setupSeconds                   float64       // keep setting up (to 3x setups) until this much time went into it
	probe                          time.Duration // time budget of one per-layer probe
	probeRows, probeOps            int           // rows the load probes write, operations the commit/session probes time
}

var scales = map[string]scale{
	"ref": {scanGroups: 15, scanPool: 5, scanReps: 4, joinGroups: 8, joinReps: 2,
		deltaGroups: 12, deltaReps: 3, dmlGroups: 4, dmlCycles: 4, wireGroups: 12, wireStmts: 500,
		setups: 3, setupSeconds: 3, probe: 150 * time.Millisecond, probeRows: 32768, probeOps: 2000},
	"tiny": {scanGroups: 3, scanPool: 1, scanReps: 1, joinGroups: 2, joinReps: 1,
		deltaGroups: 2, deltaReps: 1, dmlGroups: 1, dmlCycles: 1, wireGroups: 2, wireStmts: 25,
		setups: 1, probe: 5 * time.Millisecond, probeRows: 2048, probeOps: 200},
}

// workloadNames in the order -workload all runs them.
var workloadNames = []string{"scan_decode", "join_agg_sort", "delta_read", "dml_write", "wire_short"}

// endToEndUnits names the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s": "s", "stmts_per_s": "1/s", "stmt_p50_ms": "ms", "stmt_tail_ms": "ms",
	"cpu_ms_per_stmt": "ms", "peak_rss_mb": "MB", "stored_bytes_per_user_byte": "ratio",
}

// config is one run's parameters.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     scale
	spansPath string
	tmp       string
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var scaleName string
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and statement lists")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
	flag.StringVar(&scaleName, "scale", "ref", "sizes: ref or tiny")
	flag.StringVar(&cfg.spansPath, "spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	flag.StringVar(&cfg.tmp, "tmp", filepath.Join("..", ".bench_build", "tmp"), "scratch directory (server data, CSV files, the vwserver binary)")
	flag.IntVar(&aa, "aa", 0, "repeatability check: run two interleaved sets of this many untraced runs per workload and compare them")
	flag.Parse()
	cfg.trace = trace != 0
	var ok bool
	if cfg.scale, ok = scales[scaleName]; !ok {
		fatal(fmt.Errorf("unknown -scale %q", scaleName))
	}
	probeScale = cfg.scale
	switch {
	case aa > 0:
		if err := runAA(cfg, aa); err != nil {
			fatal(err)
		}
	case cfg.workload == "all":
		if err := runAll(); err != nil {
			fatal(err)
		}
	default:
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs every workload in a process of its own (so CPU time and peak
// memory are the workload's), passing this process's flags through.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadNames {
		args := []string{"-workload", w}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
	}
	return nil
}

// setupFunc builds one instance of a workload.
func setupFunc(cfg config) (func() (instance, error), error) {
	sc, seed := cfg.scale, cfg.seed
	switch cfg.workload {
	case "scan_decode":
		return func() (instance, error) { return setupScanDecode(sc, seed) }, nil
	case "join_agg_sort":
		return func() (instance, error) { return setupJoinAggSort(sc, seed) }, nil
	case "delta_read":
		return func() (instance, error) { return setupDeltaRead(sc, seed) }, nil
	case "dml_write":
		return func() (instance, error) { return setupDMLWrite(sc, seed) }, nil
	case "wire_short":
		if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
			return nil, err
		}
		tmp, err := filepath.Abs(cfg.tmp)
		if err != nil {
			return nil, err
		}
		bin, err := buildServer(tmp) // before any clock starts
		if err != nil {
			return nil, err
		}
		// From here on this process and the servers it starts share one core.
		if err := pinToOneCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: wire_short runs unpinned:", err)
		}
		return func() (instance, error) { return setupWireShort(sc, seed, bin, tmp) }, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runWorkload is one run: set up (several times, for a steady setup_s), warm
// up, measure, check, and report.
func runWorkload(cfg config) (*result, error) {
	setup, err := setupFunc(cfg)
	if err != nil {
		return nil, err
	}
	var inst instance
	var setupSecs []float64
	var spent float64
	// A short set-up is repeated more often, so that its median is as steady
	// as a long one's.
	for i := 0; i < cfg.scale.setups || (spent < cfg.scale.setupSeconds && i < 3*cfg.scale.setups); i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t := time.Now()
		if inst, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t).Seconds())
		spent += setupSecs[i]
	}
	defer func() { inst.close() }()
	resetPeakRSS(inst.enginePID())

	ms, err := runRounds(inst, cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	stored, user, err := inst.storedAndUserBytes()
	if err != nil {
		return nil, err
	}
	attempted, failed, firstErr := ms.statements()
	fa, ff, ferr := inst.finish()
	attempted, failed = attempted+fa, failed+ff
	if ferr != nil && firstErr == "" {
		firstErr = ferr.Error()
	}
	res := &result{Correct: failed == 0 && ferr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	values, note := endToEnd(inst, ms.plain, tailTop(cfg.workload))
	values["setup_s"] = median(setupSecs)
	values["stored_bytes_per_user_byte"] = float64(stored) / float64(user)
	if values["peak_rss_mb"], err = procPeakRSSMB(inst.enginePID()); err != nil {
		return nil, err
	}
	report(cfg, "end to end", values, note)
	if cfg.trace {
		if values, err = perLayer(inst, ms); err != nil {
			return nil, err
		}
		if cfg.spansPath != "" {
			if err := ms.spans.writeJSON(cfg.spansPath); err != nil {
				return nil, err
			}
		}
		report(cfg, "per layer", values, "")
	}
	for name, v := range values {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	fmt.Fprintf(os.Stderr, "   attempted=%d failed=%d failed_ratio=%g\n", attempted, failed,
		float64(failed)/float64(max(1, attempted)))
	if firstErr != "" {
		fmt.Fprintf(os.Stderr, "   first failure: %s\n", firstErr)
	}
	return res, nil
}

// unitOf gives a metric's unit: end-to-end metrics from their table,
// per-layer metrics from their name.
func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	// A unit word counts when it ends the name or a dotted part of it
	// (bufmgr.get_us.hit), so "per_user_byte" is not microseconds.
	word := func(w string) bool { return strings.HasSuffix(name, w) || strings.Contains(name, w+".") }
	switch {
	case word("_mbps"):
		return "MB/s"
	case strings.Contains(name, "mrows_per_s"):
		return "Mrows/s"
	case strings.Contains(name, "krows_per_s"):
		return "krows/s"
	case word("kops_per_s"):
		return "kops/s"
	case word("krecords_per_s"):
		return "krec/s"
	case word("_us"):
		return "us"
	case word("_ms"):
		return "ms"
	case strings.Contains(name, "_kb_per_"):
		return "KB"
	case strings.Contains(name, "_mb_per_"):
		return "MB"
	case strings.Contains(name, "ratio"), strings.Contains(name, "share"), word("per_user_byte"):
		return "ratio"
	case strings.Contains(name, "bytes_"):
		return "B"
	case word("_x"), strings.Contains(name, "speedup"):
		return "x"
	}
	return "count"
}

// report prints every metric by name with its unit, and the environment the
// numbers were taken in, on standard error; standard output carries only the
// result line.
func report(cfg config, title string, values map[string]float64, note string) {
	w := os.Stderr
	fmt.Fprintf(w, "== %s  %s  seed=%d  seconds=%g\n", cfg.workload, title, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "   env: %s\n", fingerprint())
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-42s %14.6g %s\n", n, values[n], unitOf(n))
	}
	if note != "" {
		fmt.Fprintf(w, "   (%s)\n", note)
	}
}

// fingerprint describes the environment a number was taken in.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}
