package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSelVCFamily(t *testing.T) {
	a := []int64{5, 1, 7, 5, 3}
	check := func(name string, got []int32, want ...int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %v want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
		}
	}
	check("eq", SelEqVC(nil, a, int64(5), nil, 5), 0, 3)
	check("ne", SelNeVC(nil, a, int64(5), nil, 5), 1, 2, 4)
	check("lt", SelLtVC(nil, a, int64(5), nil, 5), 1, 4)
	check("le", SelLeVC(nil, a, int64(5), nil, 5), 0, 1, 3, 4)
	check("gt", SelGtVC(nil, a, int64(5), nil, 5), 2)
	check("ge", SelGeVC(nil, a, int64(5), nil, 5), 0, 2, 3)
	check("between", SelBetweenVCC(nil, a, int64(3), int64(5), nil, 5), 0, 3, 4)
	// Chained through a prior selection.
	prior := []int32{0, 2, 4}
	check("chained gt", SelGtVC(nil, a, int64(4), prior, 5), 0, 2)
}

func TestSelVVFamily(t *testing.T) {
	a := []int32{1, 5, 3, 9}
	b := []int32{1, 4, 3, 10}
	if got := SelEqVV(nil, a, b, nil, 4); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("eqvv: %v", got)
	}
	if got := SelNeVV(nil, a, b, nil, 4); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("nevv: %v", got)
	}
	if got := SelLtVV(nil, a, b, nil, 4); len(got) != 1 || got[0] != 3 {
		t.Fatalf("ltvv: %v", got)
	}
	if got := SelGtVV(nil, a, b, nil, 4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("gtvv: %v", got)
	}
	if got := SelLeVV(nil, a, b, nil, 4); len(got) != 3 {
		t.Fatalf("levv: %v", got)
	}
	if got := SelGeVV(nil, a, b, nil, 4); len(got) != 3 {
		t.Fatalf("gevv: %v", got)
	}
}

func TestSelStrings(t *testing.T) {
	a := []string{"apple", "banana", "apple", "cherry"}
	got := SelEqVC(nil, a, "apple", nil, 4)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("string eq: %v", got)
	}
	got = SelGtVC(nil, a, "banana", nil, 4)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("string gt: %v", got)
	}
}

func TestSelTrueFalse(t *testing.T) {
	b := []bool{true, false, true, false}
	if got := SelTrue(nil, b, nil, 4); len(got) != 2 || got[1] != 2 {
		t.Fatalf("true: %v", got)
	}
	if got := SelTrue(nil, b, []int32{1, 2, 3}, 4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("true sel: %v", got)
	}
}

// Property: SelLtVC ∪ SelGeVC partitions the input selection.
func TestSelPartitionProperty(t *testing.T) {
	f := func(vals []int64, c int64) bool {
		n := len(vals)
		lt := SelLtVC(nil, vals, c, nil, n)
		ge := SelGeVC(nil, vals, c, nil, n)
		if len(lt)+len(ge) != n {
			return false
		}
		seen := make(map[int32]bool, n)
		for _, i := range lt {
			seen[i] = true
		}
		for _, i := range ge {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: selection vectors are always sorted ascending.
func TestSelSortedProperty(t *testing.T) {
	f := func(vals []float64, c float64) bool {
		got := SelGtVC(nil, vals, c, nil, len(vals))
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// selPair is one selection primitive and its branchy reference, both bound
// to the same input.
type selPair struct {
	name      string
	fast, ref func(dst, sel []int32) []int32
	noAlias   bool // dst may not alias the input selection
}

// vcPair binds a primitive comparing a with the constant c, and its
// reference.
func vcPair[T any](name string, a []T, c T, n int, fast, ref func([]int32, []T, T, []int32, int) []int32) selPair {
	return selPair{name: name + "VC",
		fast: func(dst, sel []int32) []int32 { return fast(dst, a, c, sel, n) },
		ref:  func(dst, sel []int32) []int32 { return ref(dst, a, c, sel, n) }}
}

// vvPair binds a primitive comparing a with b, and its reference.
func vvPair[T any](name string, a, b []T, n int, fast, ref func([]int32, []T, []T, []int32, int) []int32) selPair {
	return selPair{name: name + "VV",
		fast: func(dst, sel []int32) []int32 { return fast(dst, a, b, sel, n) },
		ref:  func(dst, sel []int32) []int32 { return ref(dst, a, b, sel, n) }}
}

// selPairs binds every comparison primitive over T and its reference to one
// input: a compared with the constant c, with b, or with BETWEEN c AND hi.
func selPairs[T Ordered](a, b []T, c, hi T, n int) []selPair {
	return []selPair{
		vcPair("Eq", a, c, n, SelEqVC[T], refSelEqVC[T]), vcPair("Ne", a, c, n, SelNeVC[T], refSelNeVC[T]),
		vcPair("Lt", a, c, n, SelLtVC[T], refSelLtVC[T]), vcPair("Le", a, c, n, SelLeVC[T], refSelLeVC[T]),
		vcPair("Gt", a, c, n, SelGtVC[T], refSelGtVC[T]), vcPair("Ge", a, c, n, SelGeVC[T], refSelGeVC[T]),
		vvPair("Eq", a, b, n, SelEqVV[T], refSelEqVV[T]), vvPair("Ne", a, b, n, SelNeVV[T], refSelNeVV[T]),
		vvPair("Lt", a, b, n, SelLtVV[T], refSelLtVV[T]), vvPair("Le", a, b, n, SelLeVV[T], refSelLeVV[T]),
		vvPair("Gt", a, b, n, SelGtVV[T], refSelGtVV[T]), vvPair("Ge", a, b, n, SelGeVV[T], refSelGeVV[T]),
		{name: "BetweenVCC",
			fast: func(dst, sel []int32) []int32 { return SelBetweenVCC(dst, a, c, hi, sel, n) },
			ref:  func(dst, sel []int32) []int32 { return refSelBetweenVCC(dst, a, c, hi, sel, n) }},
	}
}

// falseGroupedPair binds SelFalseGrouped over a and its reference. Grouped,
// candidate k is in group 1000+k and the result is the selection followed
// by the compacted groups; else groups are nil.
func falseGroupedPair(a []bool, n int, grouped bool) selPair {
	type narrowFn func(dst, gdst []int32, a []bool, groups, sel []int32, n int) ([]int32, []int32)
	bind := func(f narrowFn) func(dst, sel []int32) []int32 {
		return func(dst, sel []int32) []int32 {
			var groups []int32
			if grouped {
				m := n
				if sel != nil {
					m = len(sel)
				}
				for k := range m {
					groups = append(groups, int32(1000+k))
				}
			}
			s, g := f(dst, nil, a, groups, sel, n)
			return append(slices.Clip(s), g...)
		}
	}
	name := "False"
	if grouped {
		name = "FalseGrouped"
	}
	return selPair{name: name, fast: bind(SelFalseGrouped), ref: bind(refSelFalseGrouped)}
}

// boolSelPairs binds the primitives over BOOLEAN and their references:
// SelTrue of a, a compared with the constant c and with b, the complement,
// within the input selection, of the rows where a is true, and the rows
// where a is false with and without their groups.
func boolSelPairs(a, b []bool, c bool, n int) []selPair {
	return []selPair{
		{name: "True",
			fast: func(dst, sel []int32) []int32 { return SelTrue(dst, a, sel, n) },
			ref:  func(dst, sel []int32) []int32 { return refSelTrue(dst, a, sel, n) }},
		vcPair("BoolEq", a, c, n, SelEqVC[bool], refSelEqVC[bool]),
		vcPair("BoolNe", a, c, n, SelNeVC[bool], refSelNeVC[bool]),
		vvPair("BoolEq", a, b, n, SelEqVV[bool], refSelEqVV[bool]),
		vvPair("BoolNe", a, b, n, SelNeVV[bool], refSelNeVV[bool]),
		{name: "Complement",
			fast:    func(dst, sel []int32) []int32 { return SelComplement(dst, refSelTrue(nil, a, sel, n), sel, n) },
			ref:     func(dst, sel []int32) []int32 { return refSelComplement(dst, refSelTrue(nil, a, sel, n), sel, n) },
			noAlias: true},
		falseGroupedPair(a, n, false),
		falseGroupedPair(a, n, true),
	}
}

// checkSelPair runs p over n rows under each kind of input selection — none,
// sparse, empty, and one that dst aliases unless p forbids it — and fails
// unless the branch-free result equals the reference and the input
// selection (when not aliased) is left alone.
func checkSelPair(t testing.TB, what string, rng *rand.Rand, p selPair, n int) {
	t.Helper()
	sparse := []int32{}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			sparse = append(sparse, int32(i))
		}
	}
	for _, mode := range []string{"nil", "sparse", "empty", "aliased"} {
		if mode == "aliased" && p.noAlias {
			continue
		}
		var sel []int32
		switch mode {
		case "sparse", "aliased":
			sel = append([]int32(nil), sparse...)
		case "empty":
			sel = []int32{}
		}
		want := p.ref(nil, sel)
		var got []int32
		if mode == "aliased" {
			got = p.fast(sel, sel)
		} else {
			// A dst that is too small half the time, full of junk otherwise.
			dst := make([]int32, rng.Intn(2*n+1))
			for i := range dst {
				dst[i] = -7
			}
			got = p.fast(dst, sel)
			if mode == "sparse" && !slices.Equal(sel, sparse) {
				t.Fatalf("%s %s sel: input selection changed", what, p.name)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s sel=%s: got %v want %v", what, p.name, mode, got, want)
		}
	}
}

var selPcts = []int{0, 1, 5, 50, 95, 100}

// genSel fills n rows from domain so that about pct % of them satisfy
// holds, where the domain allows it.
func genSel[P any](rng *rand.Rand, domain []P, n, pct int, holds func(P) bool) []P {
	var yes, no []P
	for _, d := range domain {
		if holds(d) {
			yes = append(yes, d)
		} else {
			no = append(no, d)
		}
	}
	out := make([]P, n)
	for i := range out {
		pool := no
		if (rng.Intn(100) < pct && len(yes) > 0) || len(no) == 0 {
			pool = yes
		}
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// testSelKind checks every comparison primitive over T against its
// reference, for every constant of the domain and every selectivity of
// selPcts.
func testSelKind[T Ordered](t *testing.T, kind string, domain []T) {
	rng := rand.New(rand.NewSource(1))
	type pair struct{ a, b T }
	var pairs []pair
	for _, x := range domain {
		for _, y := range domain {
			pairs = append(pairs, pair{x, y})
		}
	}
	for ci, c := range domain {
		hi := domain[(ci+2)%len(domain)]
		for op := range selPairs(nil, nil, c, hi, 0) {
			holds := func(p pair) bool {
				return len(selPairs([]T{p.a}, []T{p.b}, c, hi, 1)[op].ref(nil, nil)) == 1
			}
			for _, pct := range selPcts {
				n := 1 + rng.Intn(300)
				rows := genSel(rng, pairs, n, pct, holds)
				a, b := make([]T, n), make([]T, n)
				for i, p := range rows {
					a[i], b[i] = p.a, p.b
				}
				what := fmt.Sprintf("%s c=%v hi=%v pct=%d n=%d", kind, c, hi, pct, n)
				checkSelPair(t, what, rng, selPairs(a, b, c, hi, n)[op], n)
			}
		}
	}
}

// The branch-free selection primitives select exactly what the branchy
// reference loops select: every kind, comparison and selectivity, NaN, ±0,
// ±Inf and the extremes of the integers, empty strings.
func TestSelBranchFreeEqualsReference(t *testing.T) {
	testSelKind(t, "int32", []int32{math.MinInt32, -2, -1, 0, 1, 2, math.MaxInt32})
	testSelKind(t, "int64", []int64{math.MinInt64, -2, -1, 0, 1, 2, math.MaxInt64})
	testSelKind(t, "float64", []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 1.5, math.Inf(1), math.NaN()})
	testSelKind(t, "string", []string{"", "a", "ab", "b", "\xff"})
	rng := rand.New(rand.NewSource(1))
	isTrue := func(v bool) bool { return v }
	for _, pct := range selPcts {
		n := 1 + rng.Intn(300)
		a := genSel(rng, []bool{false, true}, n, pct, isTrue)
		b := genSel(rng, []bool{false, true}, n, 50, isTrue)
		for _, c := range []bool{false, true} {
			for _, p := range boolSelPairs(a, b, c, n) {
				checkSelPair(t, fmt.Sprintf("bool c=%v pct=%d n=%d", c, pct, n), rng, p, n)
			}
		}
	}
}

// fuzzFloat maps a byte to a float64, special values included, so that
// equal bytes give equal floats and comparisons hit ties often.
func fuzzFloat(d byte) float64 {
	switch d % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	}
	return float64(int8(d)) / 4
}

// FuzzSelect checks a branch-free selection primitive against its branchy
// reference on a random vector, constant, input selection and operator.
// data gives the values (int64 and float64 from the same bytes; the second
// operand of a VV comparison is data reversed), mask the input selection
// (none when empty), op the primitive. The BOOLEAN vector is data's low
// bits, c's low bit its constant.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 0, 16, 7}, int64(2), int64(5), []byte{}, uint8(2))
	f.Add([]byte{9, 9, 9, 1, 0, 255}, int64(9), int64(1), []byte{0xa5}, uint8(14))
	f.Add([]byte{1, 2, 3, 5, 8, 13, 21}, int64(1), int64(0), []byte{0x5b}, uint8(31))
	f.Add([]byte{0, 1, 3, 2, 5, 4, 7, 6, 9}, int64(0), int64(0), []byte{0x6d, 0x01}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, c, hi int64, mask []byte, op uint8) {
		n := len(data)
		ints, rints := make([]int64, n), make([]int64, n)
		floats, rfloats := make([]float64, n), make([]float64, n)
		bools, rbools := make([]bool, n), make([]bool, n)
		for i, d := range data {
			ints[i], rints[n-1-i] = int64(int8(d)), int64(int8(d))
			floats[i], rfloats[n-1-i] = fuzzFloat(d), fuzzFloat(d)
			bools[i], rbools[n-1-i] = d&1 == 1, d&1 == 1
		}
		pairs := selPairs(ints, rints, c, hi, n)
		pairs = append(pairs, selPairs(floats, rfloats, fuzzFloat(byte(c)), fuzzFloat(byte(hi)), n)...)
		pairs = append(pairs, boolSelPairs(bools, rbools, c&1 == 1, n)...)
		p := pairs[int(op)%len(pairs)]
		var sel []int32
		if len(mask) > 0 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if mask[i/8%len(mask)]>>(i%8)&1 == 1 {
					sel = append(sel, int32(i))
				}
			}
		}
		want := p.ref(nil, sel)
		if got := p.fast(nil, sel); !slices.Equal(got, want) {
			t.Fatalf("%s: got %v want %v", p.name, got, want)
		}
		if sel != nil && !p.noAlias {
			if got := p.fast(sel, sel); !slices.Equal(got, want) {
				t.Fatalf("%s aliased: got %v want %v", p.name, got, want)
			}
		}
	})
}

// BenchmarkSel times the branch-free selection against the branchy reference
// at each selectivity. The data never repeats within a run (256 K values, a
// new 1 024-value vector per call), so the branch predictor cannot learn
// it; on one repeated vector the branchy loop looks several times faster
// than it is. ns/row is per candidate row.
func BenchmarkSel(b *testing.B) {
	const total, vecRows = 1 << 18, 1024
	type kernel func(dst []int32, a []int64, c int64, sel []int32, n int) []int32
	ops := []struct {
		name      string
		fast, ref kernel
		c         int64 // selects the rows holding 0
	}{
		{"lt", SelLtVC[int64], refSelLtVC[int64], 1},
		{"eq", SelEqVC[int64], refSelEqVC[int64], 0},
	}
	for _, op := range ops {
		for _, selMode := range []string{"nil", "vec"} {
			for _, pct := range selPcts {
				rng := rand.New(rand.NewSource(int64(pct)))
				data := make([]int64, total)
				for i := range data {
					if rng.Intn(100) >= pct {
						data[i] = 1 + rng.Int63n(1000)
					}
				}
				// vec: a fixed selection of every other row, as a prior
				// conjunct would leave.
				var sel []int32
				if selMode == "vec" {
					for i := int32(0); i < vecRows; i += 2 {
						sel = append(sel, i)
					}
				}
				rows := vecRows
				if sel != nil {
					rows = len(sel)
				}
				for _, k := range []struct {
					name string
					fn   kernel
				}{{"branchfree", op.fast}, {"branchy", op.ref}} {
					name := fmt.Sprintf("op=%s/sel=%s/pct=%d/kernel=%s", op.name, selMode, pct, k.name)
					b.Run(name, func(b *testing.B) {
						dst := make([]int32, vecRows)
						off := 0
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							dst = k.fn(dst, data[off:off+vecRows], op.c, sel, vecRows)
							off = (off + vecRows) % total
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
					})
				}
			}
		}
	}
}
