package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/primitives"
	"vectorwise/internal/types"
	"vectorwise/internal/vec"
)

// Property tests of the materialising operators against plain-Go models.
// Inputs are boxed rows cut into batches of one vector size; about half the
// batches carry a selection vector over junk rows, some of them empty.

var propVecSizes = []int{1, 7, 1024}

// propKinds has every physical kind (DATE shares int32's vector); the last
// column is the row's arrival number, which no test sorts or groups by, so
// equal keys stay distinguishable and stability is checked row for row.
var propKinds = []types.Kind{types.KindBool, types.KindInt32, types.KindDate, types.KindInt64,
	types.KindFloat64, types.KindString, types.KindInt64}

func randomValue(rng *rand.Rand, k types.Kind, domain int) types.Value {
	switch k {
	case types.KindBool:
		return types.NewBool(rng.Intn(2) == 0)
	case types.KindInt32:
		return types.NewInt32(int32(rng.Intn(domain) - domain/2))
	case types.KindDate:
		return types.NewDate(int32(rng.Intn(domain)))
	case types.KindInt64:
		return types.NewInt64(int64(rng.Intn(domain)-domain/2) * (1 << 33))
	case types.KindFloat64:
		if rng.Intn(6) == 0 {
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
			return types.NewFloat64(special[rng.Intn(len(special))])
		}
		return types.NewFloat64(float64(rng.Intn(domain)-domain/2) / 4)
	default:
		return types.NewString(strings.Repeat("k", rng.Intn(3)) + fmt.Sprint(rng.Intn(domain)))
	}
}

// randomRows makes n rows of propKinds with values from a domain of the
// given size: small domains are duplicate-heavy.
func randomRows(rng *rand.Rand, n, domain int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		row := make([]types.Value, len(propKinds))
		for c, k := range propKinds[:len(propKinds)-1] {
			row[c] = randomValue(rng, k, domain)
		}
		row[len(row)-1] = types.NewInt64(int64(i))
		rows[i] = row
	}
	return rows
}

// batchesOf cuts rows into batches of at most size physical rows.
func batchesOf(rng *rand.Rand, kinds []types.Kind, rows [][]types.Value, size int) []*vec.Batch {
	var out []*vec.Batch
	for at := 0; at < len(rows) || len(out) == 0; {
		b := vec.NewBatch(kinds, size)
		var live []int
		if rng.Intn(2) == 0 {
			n := min(size, len(rows)-at)
			b.SetLen(n)
			for i := 0; i < n; i++ {
				live = append(live, i)
			}
		} else {
			b.SetLen(size)
			b.Sel = []int32{}
			for i := 0; i < size && at+len(live) < len(rows); i++ {
				if rng.Intn(5) < 3 {
					live = append(live, i)
					b.Sel = append(b.Sel, int32(i))
				}
			}
			for i := 0; i < size; i++ { // junk under the unselected positions
				for c, k := range kinds {
					b.Vecs[c].Set(i, randomValue(rng, k, 50))
				}
			}
		}
		for _, i := range live {
			for c := range kinds {
				b.Vecs[c].Set(i, rows[at][c])
			}
			at++
		}
		out = append(out, b)
		if len(rows) == 0 {
			break
		}
	}
	return out
}

func runWith(t *testing.T, vecSize int, op Operator) []string {
	t.Helper()
	ctx := NewCtx(context.Background())
	ctx.VecSize = vecSize
	rows, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return rowStrings(rows)
}

// rowStrings renders rows for comparison (NaN compares equal to itself this
// way, and -0 differs from +0).
func rowStrings(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func sameRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

func TestTopNEqualsLimitSortEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nRows := rng.Intn(120)
		if seed%10 == 0 {
			nRows = 2500 // several full vectors
		}
		rows := randomRows(rng, nRows, []int{2, 5, 1000}[rng.Intn(3)])
		var keys []SortKey
		for _, c := range rng.Perm(len(propKinds) - 1)[:1+rng.Intn(3)] {
			keys = append(keys, SortKey{Col: c, Desc: rng.Intn(2) == 0})
		}
		ref := append([][]types.Value(nil), rows...)
		sort.SliceStable(ref, func(i, j int) bool {
			for _, k := range keys {
				if c := types.CompareOrder(ref[i][k.Col], ref[j][k.Col]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
		want := rowStrings(ref)
		for _, vs := range propVecSizes {
			in := batchesOf(rng, propKinds, rows, vs)
			src := func() Operator { return NewBatchSupplier(propKinds, in) }
			what := fmt.Sprintf("seed %d keys %v vector size %d", seed, keys, vs)
			sameRows(t, what+": Sort", runWith(t, vs, NewSort(src(), keys)), want)
			// Two workers sorting the two halves of the arrival order, merged:
			// ties go to the lower child, so the merge is the stable sort too.
			half := func(part [][]types.Value) Operator {
				return NewSort(NewBatchSupplier(propKinds, batchesOf(rng, propKinds, part, vs)), keys)
			}
			sameRows(t, what+": XchgMerge", runWith(t, vs,
				NewXchgMerge(keys, half(rows[:nRows/2]), half(rows[nRows/2:]))), want)
			for _, n := range []int{0, 1, nRows - 1, nRows, nRows + 5} {
				if n < 0 {
					continue
				}
				first := want[:min(n, nRows)]
				sameRows(t, fmt.Sprintf("%s: TopN(%d)", what, n), runWith(t, vs, NewTopN(src(), keys, n)), first)
				sameRows(t, fmt.Sprintf("%s: Limit(%d, Sort)", what, n),
					runWith(t, vs, NewLimit(NewSort(src(), keys), 0, int64(n))), first)
			}
		}
	}
}

// aggModel is one group of the HashAgg model: every aggregate of every
// column, folded in arrival order like the operator does.
type aggModel struct {
	key      []types.Value
	count    int64
	sumI     map[int]int64
	sumF     map[int]float64
	min, max map[int]types.Value
}

// doubleKeys is the domain of the DOUBLE group key: NaNs of three bit
// patterns, which make one group, and -0 and +0, which make another.
var doubleKeys = []float64{math.NaN(), math.Copysign(0, -1), 1.5, math.Float64frombits(0x7ff8000000000000),
	0, -2, math.Float64frombits(0xfff8000000000000)}

func TestHashAggEqualsMapModel(t *testing.T) {
	// Input columns: four candidate keys, then one measure per kind.
	kinds := []types.Kind{types.KindInt64, types.KindString, types.KindInt32, types.KindFloat64,
		types.KindBool, types.KindInt32, types.KindDate, types.KindInt64, types.KindFloat64, types.KindString}
	const firstMeasure = 4
	var aggs []AggSpec
	aggs = append(aggs, AggSpec{Fn: AggCount, Col: -1})
	for c := firstMeasure; c < len(kinds); c++ {
		aggs = append(aggs, AggSpec{Fn: AggMin, Col: c}, AggSpec{Fn: AggMax, Col: c})
		switch kinds[c] {
		case types.KindInt32, types.KindInt64, types.KindFloat64:
			aggs = append(aggs, AggSpec{Fn: AggSum, Col: c}, AggSpec{Fn: AggAvg, Col: c}, AggSpec{Fn: AggSumFloat, Col: c})
		}
	}
	const nRows = 3000
	for seed, distinct := range []int{1, 1000, nRows} {
		rng := rand.New(rand.NewSource(int64(seed)))
		rows := make([][]types.Value, nRows)
		for i := range rows {
			k := rng.Intn(distinct)
			if distinct == nRows {
				k = i
			}
			row := []types.Value{types.NewInt64(int64(k) * 7), types.NewString(fmt.Sprint("g", k)), types.NewInt32(int32(k % 13)),
				types.NewFloat64(doubleKeys[k%len(doubleKeys)])}
			for _, kind := range kinds[firstMeasure:] {
				v := randomValue(rng, kind, 1000)
				if kind == types.KindFloat64 && (math.IsNaN(v.F64) || math.IsInf(v.F64, 0)) {
					v = types.NewFloat64(0.5) // keep sums and extremes comparable
				}
				row = append(row, v)
			}
			rows[i] = row
		}
		for _, groupCols := range [][]int{{0}, {1}, {2, 1}, {3}, {3, 2}} {
			model := map[string]*aggModel{}
			for _, row := range rows {
				// The group is named by its first row's key, and found by the
				// key with -0 made +0 (every NaN already prints alike).
				var key, canon []types.Value
				for _, g := range groupCols {
					v := row[g]
					key = append(key, v)
					if v.Kind == types.KindFloat64 && v.F64 == 0 {
						v = types.NewFloat64(0)
					}
					canon = append(canon, v)
				}
				m := model[fmt.Sprint(canon)]
				if m == nil {
					m = &aggModel{key: key, sumI: map[int]int64{}, sumF: map[int]float64{},
						min: map[int]types.Value{}, max: map[int]types.Value{}}
					model[fmt.Sprint(canon)] = m
				}
				m.count++
				for c := firstMeasure; c < len(kinds); c++ {
					v := row[c]
					m.sumI[c] += v.I64
					m.sumF[c] += v.AsFloat()
					if lo, ok := m.min[c]; !ok || types.Compare(v, lo) < 0 {
						m.min[c] = v
					}
					if hi, ok := m.max[c]; !ok || types.Compare(v, hi) > 0 {
						m.max[c] = v
					}
				}
			}
			want := map[string]bool{}
			for _, m := range model {
				out := append([]types.Value(nil), m.key...)
				for _, a := range aggs {
					switch a.Fn {
					case AggCount:
						out = append(out, types.NewInt64(m.count))
					case AggMin:
						out = append(out, m.min[a.Col])
					case AggMax:
						out = append(out, m.max[a.Col])
					case AggSum:
						if kinds[a.Col] == types.KindFloat64 {
							out = append(out, types.NewFloat64(m.sumF[a.Col]))
						} else {
							out = append(out, types.NewInt64(m.sumI[a.Col]))
						}
					case AggAvg:
						out = append(out, types.NewFloat64(m.sumF[a.Col]/float64(m.count)))
					case AggSumFloat:
						out = append(out, types.NewFloat64(m.sumF[a.Col]))
					}
				}
				want[fmt.Sprint(out)] = true
			}
			for _, vs := range propVecSizes {
				agg, err := NewHashAgg(NewBatchSupplier(kinds, batchesOf(rng, kinds, rows, vs)), groupCols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				got := runWith(t, vs, agg)
				what := fmt.Sprintf("%d distinct, group by %v, vector size %d", distinct, groupCols, vs)
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
				}
				for _, g := range got {
					if !want[g] {
						t.Fatalf("%s: group %s not in the model", what, g)
					}
				}
			}
		}
	}
}

func TestHashJoinBuildBatchingDoesNotMatter(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := []int{3, 40, 1000}[rng.Intn(3)]
		build := randomRows(rng, rng.Intn(400), domain)
		probe := randomRows(rng, rng.Intn(400), domain)
		keyCols := [][]int{{3}, {5}, {1, 5}, {0, 2}}[rng.Intn(4)]
		var want []string
		for _, p := range probe {
			for _, b := range build {
				match := true
				for _, c := range keyCols {
					match = match && types.Compare(p[c], b[c]) == 0
				}
				if match {
					want = append(want, fmt.Sprint(append(append([]types.Value(nil), p...), b...)))
				}
			}
		}
		sort.Strings(want)
		for _, vs := range append([]int{4*len(build) + 16}, propVecSizes...) { // first: room for the whole build side in one batch
			j := NewHashJoin(NewBatchSupplier(propKinds, batchesOf(rng, propKinds, probe, 64)),
				NewBatchSupplier(propKinds, batchesOf(rng, propKinds, build, vs)), keyCols, keyCols, Inner)
			got := runWith(t, 64, j)
			sort.Strings(got)
			sameRows(t, fmt.Sprintf("seed %d keys %v build vector size %d", seed, keyCols, vs), got, want)
		}
	}
}

// sameBits reports whether two values are identical bit for bit (-0 differs
// from +0), except that any NaN equals any NaN: when both operands of a
// float add are NaN the hardware returns one of them, and which one is the
// register allocator's choice in each loop. Nothing in SQL tells NaNs apart.
func sameBits(a, b types.Value) bool {
	fa, fb := math.Float64bits(a.F64), math.Float64bits(b.F64)
	return a.Kind == b.Kind && a.Null == b.Null && a.I64 == b.I64 && a.Str == b.Str &&
		(fa == fb || (math.IsNaN(a.F64) && math.IsNaN(b.F64)))
}

// TestScalarAggEqualsOneGroup checks the scalar fold, which keeps each
// running value in a register for a whole vector, against the grouped fold
// over a single group: every aggregate over every input kind, bit for bit,
// float SUM and AVG included (they add in the same order), and MIN/MAX whose
// first value is NaN.
func TestScalarAggEqualsOneGroup(t *testing.T) {
	// Column 0 is the constant key that puts every row in one group.
	kinds := append([]types.Kind{types.KindInt64}, propKinds[:len(propKinds)-1]...)
	aggs := []AggSpec{{Fn: AggCount, Col: -1}}
	for c := 1; c < len(kinds); c++ {
		aggs = append(aggs, AggSpec{Fn: AggMin, Col: c}, AggSpec{Fn: AggMax, Col: c})
		switch kinds[c] {
		case types.KindInt32, types.KindInt64, types.KindFloat64:
			aggs = append(aggs, AggSpec{Fn: AggSum, Col: c}, AggSpec{Fn: AggAvg, Col: c}, AggSpec{Fn: AggSumFloat, Col: c})
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]types.Value, 1+rng.Intn(2500))
		for i := range rows {
			row := []types.Value{types.NewInt64(0)}
			for _, k := range kinds[1:] {
				row = append(row, randomValue(rng, k, []int{3, 1000}[rng.Intn(2)]))
			}
			rows[i] = row
		}
		if seed%3 == 0 { // NaN first: MIN and MAX must both keep it
			for c, k := range kinds {
				if k == types.KindFloat64 {
					rows[0][c] = types.NewFloat64(math.NaN())
				}
			}
		}
		for _, vs := range propVecSizes {
			in := batchesOf(rng, kinds, rows, vs)
			scalar, err := NewHashAgg(NewBatchSupplier(kinds, in), nil, aggs)
			if err != nil {
				t.Fatal(err)
			}
			grouped, err := NewHashAgg(NewBatchSupplier(kinds, in), []int{0}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			got, want := collectWith(t, vs, scalar), collectWith(t, vs, grouped)
			if len(got) != 1 || len(want) != 1 {
				t.Fatalf("seed %d vector size %d: %d scalar rows, %d groups", seed, vs, len(got), len(want))
			}
			for i, a := range aggs {
				if g, w := got[0][i], want[0][1+i]; !sameBits(g, w) {
					t.Fatalf("seed %d vector size %d: %v(col %d) = %v (%#x), grouped %v (%#x)",
						seed, vs, a.Fn, a.Col, g, math.Float64bits(g.F64), w, math.Float64bits(w.F64))
				}
			}
		}
	}
}

func collectWith(t *testing.T, vecSize int, op Operator) [][]types.Value {
	t.Helper()
	ctx := NewCtx(context.Background())
	ctx.VecSize = vecSize
	rows, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// Integer SUM fails instead of wrapping, in either fold and whichever way
// the running total leaves the range; a float SUM of the same values does
// not fail.
func TestHashAggSumOverflow(t *testing.T) {
	kinds := []types.Kind{types.KindInt64, types.KindInt64, types.KindInt32, types.KindFloat64}
	for _, vals := range [][]int64{{math.MaxInt64, 1}, {math.MinInt64, -1}, {-5, math.MinInt64 + 4}} {
		b := vec.NewBatch(kinds, len(vals))
		b.SetLen(len(vals))
		for i, v := range vals {
			b.Vecs[1].I64[i] = v
			b.Vecs[3].F64[i] = float64(v)
		}
		for _, groupCols := range [][]int{nil, {0}} {
			agg, err := NewHashAgg(NewBatchSupplier(kinds, []*vec.Batch{b}), groupCols, []AggSpec{{Fn: AggSum, Col: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Collect(NewCtx(context.Background()), agg); !errors.Is(err, primitives.ErrOverflow) {
				t.Fatalf("SUM %v group by %v: %v, want overflow", vals, groupCols, err)
			}
			agg, _ = NewHashAgg(NewBatchSupplier(kinds, []*vec.Batch{b}), groupCols,
				[]AggSpec{{Fn: AggSum, Col: 3}, {Fn: AggAvg, Col: 1}, {Fn: AggSum, Col: 2}})
			if _, err := Collect(NewCtx(context.Background()), agg); err != nil {
				t.Fatalf("float SUM, AVG and in-range SUM %v group by %v: %v", vals, groupCols, err)
			}
		}
	}
}
