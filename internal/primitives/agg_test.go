package primitives

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDirectAggregates(t *testing.T) {
	a := []int64{3, 1, 4, 1, 5}
	if s := SumDirect(a, nil, 5); s != 14 {
		t.Fatalf("sum: %d", s)
	}
	if s := SumDirect(a, []int32{0, 2}, 5); s != 7 {
		t.Fatalf("sum sel: %d", s)
	}
	if s := SumDirect([]float64{0.5, 0.25}, nil, 2); s != 0.75 {
		t.Fatalf("float sum: %v", s)
	}
	// The running value threads through vectors.
	if s, err := SumFrom(int64(100), a, []int32{4}, 5); err != nil || s != 105 {
		t.Fatalf("sum from: %d %v", s, err)
	}
	if s, err := SumFrom(int64(0), []int32{math.MaxInt32, math.MaxInt32}, nil, 2); err != nil || s != 2*math.MaxInt32 {
		t.Fatalf("widening sum: %d %v", s, err)
	}
	if s := SumFloatFrom(1, []int64{2, 3}, nil, 2); s != 6 {
		t.Fatalf("float sum from ints: %v", s)
	}
	if m, ok := MinFrom(0, false, a, nil, 5); !ok || m != 1 {
		t.Fatalf("min: %d %v", m, ok)
	}
	if m, ok := MaxFrom(0, false, a, nil, 5); !ok || m != 5 {
		t.Fatalf("max: %d %v", m, ok)
	}
	if m, ok := MinFrom(int64(-7), true, a, []int32{2}, 5); !ok || m != -7 {
		t.Fatalf("min seeded: %d %v", m, ok)
	}
	if _, ok := MinFrom(0, false, a, []int32{}, 5); ok {
		t.Fatal("empty min should report not-found")
	}
	if m, ok := MaxFrom("", false, []string{"b", "a", "c"}, nil, 3); !ok || m != "c" {
		t.Fatalf("string max: %q", m)
	}
}

// Integer sums fail instead of wrapping, in both shapes and at both widths,
// whether the running total leaves the range upwards or downwards.
func TestSumOverflow(t *testing.T) {
	up := []int64{math.MaxInt64, 1}
	down := []int64{math.MinInt64, -1}
	for _, a := range [][]int64{up, down} {
		if _, err := SumFrom(int64(0), a, nil, 2); !errors.Is(err, ErrOverflow) {
			t.Fatalf("SumFrom %v: %v", a, err)
		}
		if _, err := SumFrom(int64(0), a, []int32{0, 1}, 2); !errors.Is(err, ErrOverflow) {
			t.Fatalf("SumFrom sel %v: %v", a, err)
		}
		if err := SumGrouped(make([]int64, 1), []int32{0, 0}, a, nil, 2); !errors.Is(err, ErrOverflow) {
			t.Fatalf("SumGrouped %v: %v", a, err)
		}
		if err := SumGrouped(make([]int64, 1), []int32{0, 0}, a, []int32{0, 1}, 2); !errors.Is(err, ErrOverflow) {
			t.Fatalf("SumGrouped sel %v: %v", a, err)
		}
	}
	// Two groups that each stay in range do not fail together.
	if err := SumGrouped(make([]int64, 2), []int32{0, 1}, up, nil, 2); err != nil {
		t.Fatal(err)
	}
	// Widening: int32 values into a running int64 total near its limit.
	if _, err := SumFrom(int64(math.MaxInt64-1), []int32{1, 1}, nil, 2); !errors.Is(err, ErrOverflow) {
		t.Fatalf("widening SumFrom: %v", err)
	}
	if s, err := SumFrom(int64(math.MaxInt64-1), []int32{1, 1, -5}, []int32{0, 2}, 3); err != nil || s != math.MaxInt64-5 {
		t.Fatalf("widening SumFrom in range: %d %v", s, err)
	}
	// The wrapped total of a failed sum is still returned.
	if s, _ := SumFrom(int64(0), up, nil, 2); s != math.MinInt64 {
		t.Fatalf("wrapped: %d", s)
	}
}

func TestGroupedAggregates(t *testing.T) {
	vals := []int64{10, 20, 30, 40}
	groups := []int32{0, 1, 0, 1}
	sum := make([]int64, 2)
	SumGrouped(sum, groups, vals, nil, 4)
	if sum[0] != 40 || sum[1] != 60 {
		t.Fatalf("sum grouped: %v", sum)
	}
	cnt := make([]int64, 2)
	CountGrouped(cnt, groups, nil, 4)
	if cnt[0] != 2 || cnt[1] != 2 {
		t.Fatalf("count grouped: %v", cnt)
	}
	mn := make([]int64, 2)
	seen := make([]bool, 2)
	MinGrouped(mn, seen, groups, vals, nil, 4)
	if mn[0] != 10 || mn[1] != 20 {
		t.Fatalf("min grouped: %v", mn)
	}
	mx := make([]int64, 2)
	seen2 := make([]bool, 2)
	MaxGrouped(mx, seen2, groups, vals, nil, 4)
	if mx[0] != 30 || mx[1] != 40 {
		t.Fatalf("max grouped: %v", mx)
	}
}

func TestGroupedWithSelection(t *testing.T) {
	vals := []int64{10, 20, 30, 40}
	sel := []int32{1, 3}    // logical rows are vals[1], vals[3]
	groups := []int32{0, 0} // parallel to sel
	sum := make([]int64, 1)
	SumGrouped(sum, groups, vals, sel, 4)
	if sum[0] != 60 {
		t.Fatalf("sum grouped sel: %v", sum)
	}
	cnt := make([]int64, 1)
	CountGrouped(cnt, groups, sel, 4)
	if cnt[0] != 2 {
		t.Fatalf("count grouped sel: %v", cnt)
	}
}

// Property: grouped sum over a single group equals the running sum, wrapped
// total and overflow verdict alike (random int64s overflow often).
func TestGroupedEqualsDirectProperty(t *testing.T) {
	f := func(vals []int64) bool {
		n := len(vals)
		groups := make([]int32, n)
		acc := make([]int64, 1)
		gerr := SumGrouped(acc, groups, vals, nil, n)
		s, err := SumFrom(int64(0), vals, nil, n)
		return acc[0] == s && acc[0] == SumDirect(vals, nil, n) && errors.Is(gerr, ErrOverflow) == errors.Is(err, ErrOverflow)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the checked sum fails exactly when the exact total of some
// prefix leaves the int64 range.
func TestSumOverflowMatchesExactArithmetic(t *testing.T) {
	f := func(vals []int64) bool {
		exact, over := new(big.Int), false
		lo, hi := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
		for _, v := range vals {
			exact.Add(exact, big.NewInt(v))
			over = over || exact.Cmp(lo) < 0 || exact.Cmp(hi) > 0
		}
		_, err := SumFrom(int64(0), vals, nil, len(vals))
		return (err != nil) == over
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountTrue(t *testing.T) {
	a := []bool{false, true, false, true}
	if n := CountTrue(a, nil, 4); n != 2 {
		t.Fatalf("count true: %d", n)
	}
	if n := CountTrue(a, []int32{0, 1}, 4); n != 1 {
		t.Fatalf("count true sel: %d", n)
	}
}

// CountFalse and CountFalseGrouped count exactly the selected false
// positions, with and without a selection vector.
func TestCountFalse(t *testing.T) {
	a := []bool{false, true, false, true, false}
	sel := []int32{1, 2, 4}
	if n := CountFalse(a, nil, 4); n != 2 {
		t.Fatalf("count false: %d", n)
	}
	if n := CountFalse(a, sel, 5); n != 2 {
		t.Fatalf("count false sel: %d", n)
	}
	acc := make([]int64, 2)
	CountFalseGrouped(acc, []int32{0, 1, 1, 0, 1}, a, nil, 5)
	if acc[0] != 1 || acc[1] != 2 {
		t.Fatalf("grouped: %v", acc)
	}
	acc = make([]int64, 2)
	CountFalseGrouped(acc, []int32{1, 0, 0}, a, sel, 5) // groups parallel to sel
	if acc[0] != 2 || acc[1] != 0 {
		t.Fatalf("grouped sel: %v", acc)
	}
}

func TestHashBasics(t *testing.T) {
	a := []int64{1, 2, 1}
	h := make([]uint64, 3)
	HashInt(h, a, nil, 3)
	if h[0] != h[2] || h[0] == h[1] {
		t.Fatalf("int hash: %v", h)
	}
	s := []string{"x", "y", "x"}
	hs := make([]uint64, 3)
	HashString(hs, s, nil, 3)
	if hs[0] != hs[2] || hs[0] == hs[1] {
		t.Fatalf("str hash: %v", hs)
	}
	// Combining a second column separates (1,"x") from (1,"y").
	h2 := make([]uint64, 3)
	HashInt(h2, []int64{1, 1, 1}, nil, 3)
	RehashString(h2, s, nil, 3)
	if h2[0] == h2[1] || h2[0] != h2[2] {
		t.Fatalf("rehash: %v", h2)
	}
	f := []float64{0.0, 1.5, -0.0}
	hf := make([]uint64, 3)
	HashFloat(hf, f, nil, 3)
	if hf[0] != hf[2] {
		t.Fatal("-0.0 and 0.0 must hash equal")
	}
	nans := []float64{math.NaN(), math.Float64frombits(0xfff8000000000000)}
	hn := make([]uint64, 2)
	HashFloat(hn, nans, nil, 2)
	RehashFloat(hn, nans, nil, 2)
	if hn[0] != hn[1] {
		t.Fatal("every NaN must hash equal")
	}
	b := []bool{true, false}
	hb := make([]uint64, 2)
	HashBool(hb, b, nil, 2)
	if hb[0] == hb[1] {
		t.Fatal("bool hash collision")
	}
}

func TestHashWithSelection(t *testing.T) {
	a := []int32{7, 8, 9}
	dst := make([]uint64, 2)
	HashInt(dst, a, []int32{0, 2}, 3)
	full := make([]uint64, 3)
	HashInt(full, a, nil, 3)
	if dst[0] != full[0] || dst[1] != full[2] {
		t.Fatal("hash sel packs into dense positions")
	}
	RehashInt(dst, []int32{1, 1, 1}, []int32{0, 2}, 3)
	// Deterministic: recombining same inputs yields same outputs.
	dst2 := make([]uint64, 2)
	HashInt(dst2, a, []int32{0, 2}, 3)
	RehashInt(dst2, []int32{1, 1, 1}, []int32{0, 2}, 3)
	if dst[0] != dst2[0] || dst[1] != dst2[1] {
		t.Fatal("rehash not deterministic")
	}
}

func TestDatePrimitives(t *testing.T) {
	// 2020-02-29 and 1999-12-31.
	d1 := int32(18321)
	d2 := int32(10956)
	a := []int32{d1, d2}
	y := make([]int32, 2)
	DateYearV(y, a, nil)
	if y[0] != 2020 || y[1] != 1999 {
		t.Fatalf("year: %v", y)
	}
	m := make([]int32, 2)
	DateMonthV(m, a, nil)
	if m[0] != 2 || m[1] != 12 {
		t.Fatalf("month: %v", m)
	}
	d := make([]int32, 2)
	DateDayV(d, a, nil)
	if d[0] != 29 || d[1] != 31 {
		t.Fatalf("day: %v", d)
	}
	q := make([]int32, 2)
	DateQuarterV(q, a, nil)
	if q[0] != 1 || q[1] != 4 {
		t.Fatalf("quarter: %v", q)
	}
	dow := make([]int32, 2)
	DateDowV(dow, a, nil)
	if dow[0] != 6 { // 2020-02-29 was a Saturday
		t.Fatalf("dow: %v", dow)
	}
	add := make([]int32, 2)
	DateAddDaysVC(add, a, 1, nil)
	if add[0] != d1+1 {
		t.Fatal("add days")
	}
	if err := DateAddMonthsVC(add, a, 12, nil); err != nil {
		t.Fatal(err)
	}
	ym := make([]int32, 2)
	DateYearV(ym, add, nil)
	if ym[0] != 2021 {
		t.Fatalf("add months year: %v", ym)
	}
	diff := make([]int64, 2)
	DateDiffVV(diff, a, []int32{d2, d2}, nil)
	if diff[0] != int64(d1-d2) || diff[1] != 0 {
		t.Fatalf("diff: %v", diff)
	}
}

func TestMathPrimitives(t *testing.T) {
	a := []float64{4, 9}
	dst := make([]float64, 2)
	SqrtV(dst, a, nil)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatal("sqrt")
	}
	FloorV(dst, []float64{1.7, -1.2}, nil)
	if dst[0] != 1 || dst[1] != -2 {
		t.Fatal("floor")
	}
	CeilV(dst, []float64{1.2, -1.7}, nil)
	if dst[0] != 2 || dst[1] != -1 {
		t.Fatal("ceil")
	}
	RoundV(dst, []float64{1.256, 2.344}, 2, nil)
	if dst[0] != 1.26 || dst[1] != 2.34 {
		t.Fatalf("round: %v", dst)
	}
	PowVC(dst, []float64{2, 3}, 2, nil)
	if dst[0] != 4 || dst[1] != 9 {
		t.Fatal("pow")
	}
	LnV(dst, []float64{1, 1}, nil)
	if dst[0] != 0 {
		t.Fatal("ln")
	}
	ExpV(dst, []float64{0, 0}, nil)
	if dst[0] != 1 {
		t.Fatal("exp")
	}
	si := make([]int64, 3)
	SignV(si, []int64{-5, 0, 9}, nil)
	if si[0] != -1 || si[1] != 0 || si[2] != 1 {
		t.Fatal("sign")
	}
}

var sumSinkI int64
var sumSinkF float64

// BenchmarkSumFrom times an ungrouped sum whose running value stays in a
// register (SumFrom, SumFloatFrom) against the grouped kernel fed one group
// id per row, the way ungrouped sums used to run: every add then goes
// through memory. ns/value is per 1 024-value vector.
func BenchmarkSumFrom(b *testing.B) {
	const n = 1024
	ints, floats := make([]int64, n), make([]float64, n)
	for i := range ints {
		ints[i] = int64(i % 50)
		floats[i] = float64(i) / 7
	}
	groups := make([]int32, n)
	accI, accF := make([]int64, 1), make([]float64, 1)
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	}
	b.Run("kind=int64/kernel=from", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sumSinkI, _ = SumFrom(sumSinkI, ints, nil, n)
		}
		perValue(b)
	})
	b.Run("kind=int64/kernel=grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = SumGrouped(accI, groups, ints, nil, n)
		}
		perValue(b)
	})
	b.Run("kind=float64/kernel=from", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sumSinkF = SumFloatFrom(sumSinkF, floats, nil, n)
		}
		perValue(b)
	})
	b.Run("kind=float64/kernel=grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SumFloatGrouped(accF, groups, floats, nil, n)
		}
		perValue(b)
	})
}
