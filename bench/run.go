package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vectorwise/internal/metrics"
)

// sample is one completed statement: its template and its latency.
type sample struct {
	tmpl int
	ns   int64
}

// roundOut is what one round of a workload's fixed statement list produced.
type roundOut struct {
	samples []sample
	failed  int
	firstEr string // first failure of the round, for the report
}

func (r *roundOut) add(tmpl int, d time.Duration, err error) {
	r.samples = append(r.samples, sample{tmpl, int64(d)})
	if err != nil {
		r.failed++
		if r.firstEr == "" {
			r.firstEr = err.Error()
		}
	}
}

// instance is one set-up of a workload: loaded data, open sessions or
// connections, and the oracle's expectations.
type instance interface {
	// templates names the statement templates, indexed by sample.tmpl.
	templates() []string
	// round runs the workload's statement list once. With a tracer it also
	// records spans and replays each statement layer by layer.
	round(tr *tracer) (roundOut, error)
	// engineCPU is the cumulative CPU time of the process running the engine.
	engineCPU() (time.Duration, error)
	// enginePID names that process under /proc ("self" or a pid).
	enginePID() string
	// counters snapshots that process's engine counters.
	counters() (map[string]float64, error)
	// storedAndUserBytes reports encoded bytes of all tables and the CSV size
	// of the same rows.
	storedAndUserBytes() (stored, user int64, err error)
	// finish runs end-of-run checks (dml_write: crash and recover) and
	// returns statements attempted and failed by them.
	finish() (attempted, failed int, err error)
	// probe fills per-layer metrics measured on this instance's data.
	probe(m map[string]float64) error
	close()
}

// localHost implements the process-level readings for workloads whose engine
// runs inside the benchmark process.
type localHost struct{}

func (localHost) engineCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (localHost) enginePID() string { return "self" }

func (localHost) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range metrics.Default.Snapshot() {
		if s.Kind == "counter" {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}

// resetPeakRSS restarts the kernel's high-water mark of a process's resident
// set, so that the peak read later belongs to the warm-up and measured
// phases, not to set-up (whose peak depends on when the collector happened
// to run during the load). Where the kernel refuses, the peak stays the
// whole process's; either way every run on one machine reads the same thing.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// procPeakRSSMB reads VmHWM of /proc/<pid>/status.
func procPeakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(ln, "VmHWM:") {
			f := strings.Fields(ln)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procCPU reads utime+stime of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// roundStat is one measured round.
type roundStat struct {
	wall, cpu time.Duration
	out       roundOut
}

func (r *roundStat) latSum() time.Duration {
	var s int64
	for _, x := range r.out.samples {
		s += x.ns
	}
	return time.Duration(s)
}

// measured is everything the measured phase of one run collected.
type measured struct {
	plain, traced []roundStat        // untraced and traced rounds
	warm          roundOut           // the discarded round: only its failures count
	counterDelta  map[string]float64 // engine counters over the untraced rounds
	mem           memDelta           // Go runtime deltas over the untraced rounds
	spans         *tracer
}

func (m *measured) statements() (attempted, failed int, firstErr string) {
	// A wrong answer in the discarded round is still a wrong answer.
	attempted, failed, firstErr = len(m.warm.samples), m.warm.failed, m.warm.firstEr
	for _, rs := range [][]roundStat{m.plain, m.traced} {
		for _, r := range rs {
			attempted += len(r.out.samples)
			failed += r.out.failed
			if firstErr == "" {
				firstErr = r.out.firstEr
			}
		}
	}
	return
}

// runRounds runs one discarded warm-up round, then identical measured rounds
// until seconds have passed (at least three). With trace set, every other
// round is traced; counters and runtime readings cover the untraced rounds
// only, so replays do not leak into them.
func runRounds(inst instance, seconds float64, trace bool) (*measured, error) {
	m := &measured{counterDelta: map[string]float64{}}
	if trace {
		m.spans = newTracer()
	}
	var err error
	if m.warm, err = inst.round(nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	runtime.GC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || len(m.plain) < 3 || (trace && len(m.traced) < 3); i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = m.spans
		}
		var before map[string]float64
		var mem0 memReading
		if tr == nil {
			if before, err = inst.counters(); err != nil {
				return nil, err
			}
			mem0 = readMem()
		}
		cpu0, err := inst.engineCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := inst.round(tr)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		cpu1, err := inst.engineCPU()
		if err != nil {
			return nil, err
		}
		rs := roundStat{wall: wall, cpu: cpu1 - cpu0, out: out}
		if tr == nil {
			m.mem.add(mem0, readMem())
			after, err := inst.counters()
			if err != nil {
				return nil, err
			}
			for k, v := range after {
				if d := v - before[k]; d != 0 {
					m.counterDelta[k] += d
				}
			}
			m.plain = append(m.plain, rs)
		} else {
			m.traced = append(m.traced, rs)
		}
		runtime.GC()
	}
	return m, nil
}

// tailTop is the highest percentile stmt_tail_ms may be for a workload: p99
// where a run holds thousands of statements, p95 where it holds hundreds.
func tailTop(workload string) int {
	if workload == "wire_short" {
		return 99
	}
	return 95
}

// endToEnd computes the metrics a user of the system sees, from the untraced
// rounds.
func endToEnd(inst instance, rounds []roundStat, tailTop int) (map[string]float64, string) {
	nt := len(inst.templates())
	byTmpl := make([][]float64, nt)
	var pooled, rate, cpuPer []float64
	for _, r := range rounds {
		n := len(r.out.samples)
		if n == 0 || r.wall == 0 {
			continue
		}
		rate = append(rate, float64(n)/r.wall.Seconds())
		cpuPer = append(cpuPer, float64(r.cpu)/1e6/float64(n))
		for _, s := range r.out.samples {
			ms := float64(s.ns) / 1e6
			byTmpl[s.tmpl] = append(byTmpl[s.tmpl], ms)
			pooled = append(pooled, ms)
		}
	}
	var p50s []float64
	for _, xs := range byTmpl {
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
		}
	}
	pct, tail := tailPercentile(sorted(pooled), tailTop)
	return map[string]float64{
		"stmts_per_s":     median(rate),
		"stmt_p50_ms":     geomean(p50s),
		"stmt_tail_ms":    tail,
		"cpu_ms_per_stmt": median(cpuPer),
	}, fmt.Sprintf("stmt_tail_ms is p%d of %d statements over %d rounds", pct, len(pooled), len(rate))
}

// templateP50s returns each template's median latency in ms.
func templateP50s(inst instance, rounds []roundStat) map[string]float64 {
	names := inst.templates()
	by := make([][]float64, len(names))
	for _, r := range rounds {
		for _, s := range r.out.samples {
			by[s.tmpl] = append(by[s.tmpl], float64(s.ns)/1e6)
		}
	}
	out := map[string]float64{}
	for i, n := range names {
		out[n] = median(by[i])
	}
	return out
}
