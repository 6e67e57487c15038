package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vectorwise/internal/fsim"
	"vectorwise/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestTailPercentileKeepsTenSamplesAbove(t *testing.T) {
	for _, c := range []struct{ n, top, want int }{{50, 99, 90}, {100, 99, 90}, {199, 99, 90}, {200, 99, 95}, {999, 99, 95},
		{1000, 99, 99}, {5000, 99, 99}, {5000, 95, 95}, {150, 95, 90}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v := tailPercentile(xs, c.top)
		if p != c.want {
			t.Errorf("n=%d: picked p%d, want p%d", c.n, p, c.want)
		}
		if c.n >= 100 {
			above := 0
			for _, x := range xs {
				if x > v {
					above++
				}
			}
			if above < 10 {
				t.Errorf("n=%d: only %d samples above p%d", c.n, above, p)
			}
		}
	}
}

func TestGeomeanWeighsTemplatesEqually(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2,8,4) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) ==
// [2.75, 5.5, 8.25]; statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !near(q1, 1) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestRoundMedians(t *testing.T) {
	mk := func(wallMS, cpuMS int, lat ...int) roundStat {
		r := roundStat{wall: time.Duration(wallMS) * time.Millisecond, cpu: time.Duration(cpuMS) * time.Millisecond}
		for i, l := range lat {
			r.out.samples = append(r.out.samples, sample{tmpl: i % 2, ns: int64(l) * 1e6})
		}
		return r
	}
	in := &readInstance{tmpls: []template{{name: "a"}, {name: "b"}}}
	// Three rounds of two statements: rates 20, 10 and 5 per second.
	rounds := []roundStat{mk(100, 50, 10, 40), mk(200, 100, 20, 40), mk(400, 400, 30, 160)}
	m, _ := endToEnd(in, rounds, 99)
	if !near(m["stmts_per_s"], 10) {
		t.Errorf("stmts_per_s = %v, want the median round's 10", m["stmts_per_s"])
	}
	if !near(m["cpu_ms_per_stmt"], 50) {
		t.Errorf("cpu_ms_per_stmt = %v, want 50", m["cpu_ms_per_stmt"])
	}
	// Template a: median(10,20,30)=20; b: median(40,40,160)=40; geomean = sqrt(800).
	if !near(m["stmt_p50_ms"], math.Sqrt(800)) {
		t.Errorf("stmt_p50_ms = %v, want %v", m["stmt_p50_ms"], math.Sqrt(800))
	}
	p50 := templateP50s(in, rounds)
	if !near(p50["a"], 20) || !near(p50["b"], 40) {
		t.Errorf("template medians = %v", p50)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.stmt", Start: 0, End: 100, Parent: -1},
		{Name: "session.exec", Start: 10, End: 90, Parent: 0},
		{Name: "fsim.io", Start: 20, End: 30, Parent: 1},
		{Name: "fsim.io", Start: 25, End: 45, Parent: 1}, // overlaps the one before: counted once
		// A replay subtree: children run after their parent's interval.
		{Name: "engine.exec", Start: 200, End: 260, Parent: -1},
		{Name: "colstore.scan", Start: 300, End: 340, Parent: 4},
		{Name: "compress.decode", Start: 400, End: 430, Parent: 5},
		// A child longer than its parent cannot push self time below zero.
		{Name: "sql.parse", Start: 500, End: 510, Parent: -1},
		{Name: "noise", Start: 600, End: 650, Parent: 7},
	}
	want := []int64{20, 55, 10, 20, 20, 10, 30, 0, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if by["fsim.io"] != 30 {
		t.Errorf("fsim.io self total = %d, want 30", by["fsim.io"])
	}
	if d := durByName(spans)["fsim.io"]; d != 30 {
		t.Errorf("fsim.io duration total = %d, want 30", d)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	a := tr.begin("client.stmt", -1, 1)
	b := tr.begin("session.exec", a, 1)
	tr.end(b)
	tr.end(a)
	tr.derived("fsim.io", b, 1, 5)
	c := tr.begin("client.stmt", -1, 2)
	tr.end(tr.begin("wire.roundtrip", c, 2))
	tr.end(c)
	if len(tr.spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(tr.spans))
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 || tr.spans[4].Parent != 3 {
		t.Errorf("parents wrong: %+v", tr.spans)
	}
	if s := tr.spans[2]; s.End-s.Start != 5 || s.Start != tr.spans[1].Start {
		t.Errorf("derived span = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 5 || back[4].Name != "wire.roundtrip" {
		t.Errorf("span file does not read back: %v %+v", err, back)
	}
}

func TestCountFS(t *testing.T) {
	mem := fsim.NewMemFS()
	fs := &countFS{FS: mem}
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := fs.OpenAppend("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte(", world")); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if got := fs.bytesWritten.Load(); got != 12 {
		t.Errorf("bytes written = %d, want 12", got)
	}
	if got := fs.syncs.Load(); got != 1 {
		t.Errorf("syncs = %d, want 1", got)
	}
	if fs.ioNanos.Load() <= 0 {
		t.Error("no time recorded inside Write and Sync")
	}
	// Reads pass through uncounted, and the wrapped FS sees the bytes.
	r, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "hello, world" || fs.bytesWritten.Load() != 12 {
		t.Errorf("read %q, bytes written now %d", data, fs.bytesWritten.Load())
	}
	// The unsynced append is lost in a crash; the counter still saw it.
	mem.Crash()
	if data, _ := mem.ReadFile("a"); string(data) != "hello" {
		t.Errorf("after crash: %q, want the synced prefix", data)
	}
}

func TestScanSpecsFromPlan(t *testing.T) {
	plan := `== physical plan ==
Project(x=$g0) :: [VARCHAR]
  Xchg(degree=2)
    ParallelHashJoin[inner](lk=[0], rk=[0], degree=2)
      ParallelScan('lineitem', [l_orderkey l_quantity] @ [0 2], worker 0/2, queue=1) :: [BIGINT, INTEGER]
      ParallelScan('lineitem', [l_orderkey l_quantity] @ [0 2], worker 1/2, queue=1) :: [BIGINT, INTEGER]
      Scan('orders', [o_orderkey o_p] @ [0 4], filters=[col0 in [1,5]]) :: [BIGINT, VARCHAR]
`
	got := scanSpecs(plan)
	if len(got) != 2 || got[0].table != "lineitem" || got[1].table != "orders" {
		t.Fatalf("specs = %+v", got)
	}
	if len(got[0].cols) != 2 || got[0].cols[1] != 2 || got[1].cols[1] != 4 {
		t.Errorf("columns = %+v", got)
	}
}

// The oracle and the engine must agree on every template at a scale small
// enough to run in a unit test, and a wrong expectation must be caught.
func TestOracleAgreesWithEngine(t *testing.T) {
	sc := scales["tiny"]
	for _, setup := range []func(scale, int64) (instance, error){setupScanDecode, setupJoinAggSort, setupDeltaRead} {
		inst, err := setup(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*readInstance)
		out, err := in.round(nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.samples) != len(in.stmts) {
			t.Errorf("%v: %d of %d statements failed: %s", in.templates(), out.failed, len(out.samples), out.firstEr)
		}
		// Break one expectation: the next round must report exactly that.
		in.stmts[0].want = [][]types.Value{{int64Val(-1), int64Val(-1), int64Val(-1)}}
		out, err = in.round(nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 1 {
			t.Errorf("a wrong expectation gave %d failures, want 1", out.failed)
		}
		in.close()
	}
}

func TestCheckRowsToleranceAndOrder(t *testing.T) {
	want := [][]types.Value{{int64Val(1), float64Val(1e6)}, {int64Val(2), float64Val(3)}}
	ok := [][]types.Value{{int64Val(1), float64Val(1e6 * (1 + 1e-12))}, {int64Val(2), float64Val(3)}}
	if err := checkRows(ok, want, true); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	off := [][]types.Value{{int64Val(1), float64Val(1e6 * (1 + 1e-6))}, {int64Val(2), float64Val(3)}}
	if checkRows(off, want, true) == nil {
		t.Error("a float off by 1e-6 relative passed")
	}
	swapped := [][]types.Value{ok[1], ok[0]}
	if checkRows(swapped, want, true) == nil {
		t.Error("an ordered result in the wrong order passed")
	}
	if err := checkRows(swapped, want, false); err != nil {
		t.Errorf("unordered compare: %v", err)
	}
	if checkRows(ok[:1], want, false) == nil {
		t.Error("a missing row passed")
	}
}

func TestCheckBodyParsesFormatResult(t *testing.T) {
	body := "a | b    \n--+------\n1 | x y  \n2 | 2.5  \n(2 rows)\n"
	want := [][]types.Value{{int64Val(2), float64Val(2.5)}, {int64Val(1), stringVal("x y")}}
	if err := checkBody(body, want, false); err != nil {
		t.Errorf("unordered: %v", err)
	}
	if checkBody(body, want, true) == nil {
		t.Error("ordered compare ignored the order")
	}
	if _, err := parseBody("OK, 1 rows affected\n"); err == nil {
		t.Error("a non-table body parsed")
	}
}

// All five workloads, end to end and traced, at the tiny scale: every
// statement must pass the oracle, every end-to-end metric must be positive,
// and the traced run must print the full fixed per-layer set.
func TestSmokeAllWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts vwserver")
	}
	tmp := t.TempDir()
	probeScale = scales["tiny"]
	defer func() { probeScale = scales["ref"] }()
	names := perLayerNames()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("per-layer metric %s listed twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 0.2, trace: trace, scale: scales["tiny"], tmp: tmp}
			if trace {
				cfg.spansPath = filepath.Join(tmp, w+".spans.json")
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if !trace {
				if len(res.Metrics) != len(endToEndUnits) {
					t.Errorf("%s: %d end-to-end metrics, want %d", w, len(res.Metrics), len(endToEndUnits))
				}
				for name := range endToEndUnits {
					if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %+v, want > 0", w, name, m)
					}
				}
				continue
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s: %d per-layer metrics, want %d", w, len(res.Metrics), len(names))
			}
			for _, n := range names {
				if m, ok := res.Metrics[n]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: per-layer metric %s = %+v", w, n, m)
				}
			}
			if v := res.Metrics["bench.attributed_ratio"].Value; v < 0.9 {
				t.Errorf("%s: only %.2f of client.stmt time is inside a named span", w, v)
			}
			if st, err := os.Stat(cfg.spansPath); err != nil || st.Size() == 0 {
				t.Errorf("%s: no span file: %v", w, err)
			}
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the code
// prints, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in code", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEndUnits))
	}
	for _, e := range bf.EndToEnd {
		if endToEndUnits[e.Name] != e.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in code", e.Name, e.Unit, endToEndUnits[e.Name])
		}
	}
	names := perLayerNames()
	if len(bf.PerLayer) != len(names) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(names))
	}
	for i, p := range bf.PerLayer {
		if i < len(names) && (p.Name != names[i] || p.Unit != unitOf(names[i])) {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in code", i, p.Name, p.Unit, names[i], unitOf(names[i]))
		}
	}
}
