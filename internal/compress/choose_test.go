package compress

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// intShapes are the column shapes the store feeds ChooseInt64, each a
// generator of an n-value block.
var intShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int64
}{
	{"small ints", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return 1 + rng.Int63n(50) })
	}},
	{"small ints with outliers", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			if rng.Intn(30) == 0 {
				return rng.Int63() - rng.Int63()
			}
			return rng.Int63n(64)
		})
	}},
	{"random keys", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return 1 + rng.Int63n(200_000) })
	}},
	{"sorted keys", func(rng *rand.Rand, n int) []int64 {
		acc := rng.Int63n(1 << 40)
		return fill(n, func(int) int64 { acc += rng.Int63n(5); return acc })
	}},
	{"dates", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return 8035 + rng.Int63n(2557) })
	}},
	{"clustered dates", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(i int) int64 { return 8035 + int64(i/7) })
	}},
	{"double k/100", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return int64(math.Float64bits(float64(rng.Intn(11)) / 100)) })
	}},
	{"double price*qty", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			qty := rng.Intn(50) + 1
			return int64(math.Float64bits(float64(rng.Intn(90000)+10000) / 100 * float64(qty)))
		})
	}},
	{"all equal", func(rng *rand.Rand, n int) []int64 {
		v := rng.Int63() - rng.Int63()
		return fill(n, func(int) int64 { return v })
	}},
	{"runs", func(rng *rand.Rand, n int) []int64 {
		run := 1 + rng.Intn(64)
		return fill(n, func(i int) int64 { return int64(i / run) })
	}},
	{"full range", func(rng *rand.Rand, n int) []int64 {
		vals := fill(n, func(int) int64 { return rng.Int63() - rng.Int63() })
		vals[rng.Intn(n)] = math.MinInt64
		vals[rng.Intn(n)] = math.MaxInt64
		return vals
	}},
	{"extremes only", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			return [...]int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]
		})
	}},
}

func fill(n int, f func(i int) int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return vals
}

// strShapes are the string column shapes the store feeds ChooseString.
var strShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []string
}{
	{"3-value", func(rng *rand.Rand, n int) []string {
		return fillStr(n, func(int) string { return [...]string{"A", "N", "R"}[rng.Intn(3)] })
	}},
	{"7-value", func(rng *rand.Rand, n int) []string {
		modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
		return fillStr(n, func(int) string { return modes[rng.Intn(len(modes))] })
	}},
	{"near-unique", func(rng *rand.Rand, n int) []string {
		return fillStr(n, func(i int) string { return fmt.Sprintf("comment %d about %x", i, rng.Intn(n)) })
	}},
	{"empty", func(rng *rand.Rand, n int) []string {
		return fillStr(n, func(int) string { return "" })
	}},
	{"empty and short", func(rng *rand.Rand, n int) []string {
		return fillStr(n, func(int) string { return strings.Repeat("x", rng.Intn(3)) })
	}},
	{"long", func(rng *rand.Rand, n int) []string {
		return fillStr(n, func(int) string { return strings.Repeat(string(rune('a'+rng.Intn(5))), 200+rng.Intn(2)) })
	}},
}

func fillStr(n int, f func(i int) string) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return vals
}

// blockSizes are the sizes the property test tries: every small size, where
// packing, varints and the width search meet their edges, and a full block.
func blockSizes() []int {
	sizes := []int{16384}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	return sizes
}

// checkInts holds the encoders to the reference encoders on vals.
func checkInts(t *testing.T, vals []int64) {
	t.Helper()
	prefix := []byte("xy")
	got, codec := ChooseInt64(append([]byte(nil), prefix...), vals)
	want, wantCodec := refChooseInt64(append([]byte(nil), prefix...), vals)
	if codec != wantCodec || !bytes.Equal(got, want) {
		t.Fatalf("ChooseInt64 of %d values: %v block of %d bytes, reference %v of %d", len(vals), codec, len(got), wantCodec, len(want))
	}
	if got, want := EncodePFOR(nil, vals), refEncodePFOR(nil, vals); !bytes.Equal(got, want) {
		t.Fatalf("EncodePFOR of %d values differs from the reference", len(vals))
	}
	if got, want := EncodePFORDelta(nil, vals), refEncodePFORDelta(nil, vals); !bytes.Equal(got, want) {
		t.Fatalf("EncodePFORDelta of %d values differs from the reference", len(vals))
	}
}

// checkStrings holds the string encoders to the reference encoders on vals.
func checkStrings(t *testing.T, vals []string) {
	t.Helper()
	got, codec := ChooseString([]byte("xy"), vals)
	want, wantCodec := refChooseString([]byte("xy"), vals)
	if codec != wantCodec || !bytes.Equal(got, want) {
		t.Fatalf("ChooseString of %d values: %v block of %d bytes, reference %v of %d", len(vals), codec, len(got), wantCodec, len(want))
	}
	if got, want := EncodePDict(nil, vals), refEncodePDict(nil, vals); !bytes.Equal(got, want) {
		t.Fatalf("EncodePDict of %d values differs from the reference", len(vals))
	}
}

// The pruned width search, the radix sort and the computed sizes choose
// exactly what trying every width of every codec chooses: the same codec
// and the same bytes, on every shape at every size.
func TestChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	checkInts(t, nil)
	checkStrings(t, nil)
	for _, shape := range intShapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, n := range blockSizes() {
				checkInts(t, shape.gen(rng, n))
			}
		})
	}
	for _, shape := range strShapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, n := range blockSizes() {
				checkStrings(t, shape.gen(rng, n))
			}
		})
	}
}

// Blocks that reach each end of the width search: the whole range in one
// width, a width that leaves a few outliers as exceptions, a lone value
// beside its opposite extreme, and values spread so evenly over the whole
// range that no width below 64 pays.
func TestChoosePFORWidths(t *testing.T) {
	cases := []struct {
		vals []int64
		w    uint
		nExc int
	}{
		{[]int64{5, 5, 5}, 0, 0},
		{fill(1000, func(i int) int64 { return int64(i % 64) }), 6, 0},
		{append(fill(1000, func(i int) int64 { return int64(i % 64) }), math.MaxInt64, math.MinInt64), 6, 2},
		{[]int64{math.MinInt64, math.MaxInt64}, 0, 1},
		{fill(1000, func(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15) }), 64, 0},
	}
	e := new(Encoder)
	for _, c := range cases {
		base, w, nExc := e.choosePFOR(c.vals)
		wantBase, wantW := refChoosePFOR(c.vals)
		if base != wantBase || w != wantW {
			t.Fatalf("choosePFOR = (%d, %d), reference (%d, %d)", base, w, wantBase, wantW)
		}
		if w != c.w || nExc != c.nExc {
			t.Fatalf("choosePFOR width %d with %d exceptions, want %d with %d", w, nExc, c.w, c.nExc)
		}
	}
}
