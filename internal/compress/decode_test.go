package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tail follows every block under test: a kernel must hand back exactly the
// bytes it did not consume.
var tail = []byte{0xde, 0xad, 0xbe, 0xef, 0x01}

// checkTyped decodes block (followed by tail) with the kernel for T and
// holds the result to the reference decoder's, narrowed.
func checkTyped[T Int](t *testing.T, block []byte) {
	t.Helper()
	src := append(slices.Clone(block), tail...)
	want, wantRest, err := refDecodeInt64(src)
	if err != nil {
		t.Fatalf("reference rejects the block: %v", err)
	}
	dst := make([]T, len(want))
	rest, err := DecodeInts(dst, src)
	if err != nil {
		t.Fatalf("%T: %v", dst, err)
	}
	if !bytes.Equal(rest, wantRest) || !bytes.Equal(rest, tail) {
		t.Fatalf("%T: rest %x, reference %x", dst, rest, wantRest)
	}
	for i, v := range want {
		if dst[i] != T(v) {
			t.Fatalf("%T: value %d of %d = %d, want %d (reference %d)", dst, i, len(want), dst[i], T(v), v)
		}
	}
	// A destination of any other length is a row-count mismatch.
	if _, err := DecodeInts(make([]T, len(want)+1), src); err == nil {
		t.Fatalf("%T: destination one too long accepted", dst)
	}
	if len(want) > 0 {
		if _, err := DecodeInts(make([]T, len(want)-1), src); err == nil {
			t.Fatalf("%T: destination one too short accepted", dst)
		}
	}
}

func checkAllTypes(t *testing.T, block []byte) {
	t.Helper()
	checkTyped[int64](t, block)
	checkTyped[int32](t, block)
	checkTyped[int8](t, block)
}

var lengths = []int{0, 1, 7, 63, 64, 65, 1023, 16384}

// pforBlock builds an n-row PFOR block of width w around a frame that
// straddles zero, with the exceptions mode asks for.
func pforBlock(rng *rand.Rand, w uint, n int, mode string) ([]byte, []int64) {
	if n == 0 {
		return EncodePFOR(nil, nil), nil
	}
	base := int64(42)
	switch {
	case w == 64:
		base = math.MinInt64 // the frame is everything: no exceptions exist
	case w > 0:
		base = -(int64(1) << (w - 1))
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(uint64(base) + rng.Uint64()&widthMask(w))
	}
	if w < 64 {
		above := func() int64 { return int64(uint64(base)+widthMask(w)) + 1 + rng.Int63n(1000) }
		below := func() int64 { return base - 1 - rng.Int63n(1000) }
		switch mode {
		case "first":
			vals[0] = above()
		case "last":
			vals[n-1] = above()
		case "5pct":
			for i := range vals {
				if rng.Intn(20) == 0 {
					vals[i] = above()
				}
			}
		case "below":
			for i := range vals {
				if rng.Intn(20) == 0 {
					vals[i] = below()
				}
			}
		}
	}
	return encodePFORAt(nil, vals, base, w), vals
}

func TestTypedDecodeEqualsReferencePFOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := uint(0); w <= 64; w++ {
		for _, n := range lengths {
			for _, mode := range []string{"none", "first", "last", "5pct", "below"} {
				block, vals := pforBlock(rng, w, n, mode)
				t.Run(fmt.Sprintf("w=%d/n=%d/%s", w, n, mode), func(t *testing.T) {
					checkAllTypes(t, block)
					got, _, err := DecodeInt64(nil, block)
					if err != nil || !slices.Equal(got, vals) {
						t.Fatalf("round trip: %v", err)
					}
				})
			}
		}
	}
}

func TestTypedDecodeEqualsReferenceDeltaRLENone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		inputs := map[string][]int64{
			"sorted":      make([]int64, n),
			"descending":  make([]int64, n),
			"overflowing": make([]int64, n),
			"single-run":  make([]int64, n),
			"distinct":    make([]int64, n),
			"short-runs":  make([]int64, n),
		}
		acc := int64(-5000)
		for i := 0; i < n; i++ {
			acc += rng.Int63n(9)
			inputs["sorted"][i] = acc
			inputs["descending"][i] = -acc * 3
			// Alternating extremes: every delta overflows int64.
			inputs["overflowing"][i] = []int64{math.MaxInt64 - rng.Int63n(9), math.MinInt64 + rng.Int63n(9)}[i%2]
			inputs["single-run"][i] = -77
			inputs["distinct"][i] = int64(i)*1_000_003 - 1<<40
			inputs["short-runs"][i] = int64(i / 3)
		}
		for name, vals := range inputs {
			for _, enc := range []func([]byte, []int64) []byte{EncodePFORDelta, EncodeRLE, EncodeNone} {
				block := enc(nil, vals)
				t.Run(fmt.Sprintf("%s/n=%d/%v", name, n, Codec(block[0])), func(t *testing.T) {
					checkAllTypes(t, block)
					got, _, err := DecodeInt64(nil, block)
					if err != nil || !slices.Equal(got, vals) {
						t.Fatalf("round trip: %v", err)
					}
				})
			}
		}
	}
}

func TestFloatAndBoolDecode(t *testing.T) {
	floats := []float64{0, -0.0, 1.5, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	bits := make([]int64, len(floats))
	for i, f := range floats {
		bits[i] = int64(math.Float64bits(f))
	}
	block, _ := ChooseInt64(nil, bits)
	got := make([]float64, len(floats))
	if rest, err := DecodeFloat64s(got, block); err != nil || len(rest) != 0 {
		t.Fatalf("floats: %v, %d bytes left", err, len(rest))
	}
	for i, f := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(f) {
			t.Fatalf("float %d = %v, want %v", i, got[i], f)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		want := make([]bool, n)
		ints := make([]int64, n)
		for i := range want {
			if want[i] = rng.Intn(3) == 0; want[i] {
				ints[i] = 1
			}
		}
		for _, enc := range []func([]byte, []int64) []byte{EncodePFOR, EncodePFORDelta, EncodeRLE, EncodeNone} {
			got := make([]bool, n)
			if _, err := DecodeBools(got, enc(nil, ints)); err != nil || !slices.Equal(got, want) {
				t.Fatalf("bools n=%d: %v", n, err)
			}
		}
	}
	// A value that is neither 0 nor 1 must not reach a bool.
	got2 := []bool{true, true, true}
	if _, err := DecodeBools(got2, EncodeRLE(nil, []int64{1, 2, 0})); err == nil {
		t.Fatal("bool block holding 2 accepted")
	}
	if !slices.Equal(got2, []bool{false, false, false}) {
		t.Fatalf("destination not cleared after a bad bool block: %v", got2)
	}
}

func TestStringDecodeEqualsReference(t *testing.T) {
	var d StringDecoder // reused across blocks, like a scanner's
	check := func(t *testing.T, block []byte, vals []string) {
		t.Helper()
		src := append(slices.Clone(block), tail...)
		want, wantRest, err := refDecodeString(src)
		if err != nil || !slices.Equal(want, vals) {
			t.Fatalf("reference: %v", err)
		}
		got := make([]string, len(vals))
		rest, err := d.Decode(got, src)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || !bytes.Equal(rest, wantRest) || !bytes.Equal(rest, tail) {
			t.Fatalf("decoded %d values, rest %x; reference rest %x", len(got), rest, wantRest)
		}
		if _, err := d.Decode(make([]string, len(vals)+1), src); err == nil {
			t.Fatal("destination one too long accepted")
		}
		viaWrapper, _, err := DecodeString(nil, block)
		if err != nil || !slices.Equal(viaWrapper, vals) {
			t.Fatalf("DecodeString: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, entries := range []int{1, 2, 255, 256, 257} { // code widths 0, 1, 8, 8, 9
		for _, n := range lengths {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = fmt.Sprintf("value-%d", rng.Intn(entries))
				if i < entries {
					vals[i] = fmt.Sprintf("value-%d", i) // every entry occurs when n allows
				}
			}
			t.Run(fmt.Sprintf("entries=%d/n=%d", entries, n), func(t *testing.T) {
				check(t, EncodePDict(nil, vals), vals)
				check(t, EncodeStringRaw(nil, vals), vals)
			})
		}
	}
	check(t, EncodePDict(nil, []string{"", "", ""}), []string{"", "", ""})
	check(t, EncodeStringRaw(nil, []string{"", "a\x00b", ""}), []string{"", "a\x00b", ""})
}

// TestHostileBlocksReturnErrors feeds every decoder lengths and counts near
// 2^62 and 2^63 — values that turn negative, or wrap to something small,
// when converted to int before they are checked.
func TestHostileBlocksReturnErrors(t *testing.T) {
	uv := func(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
	pforExc := uv([]byte{byte(PFOR)}, 2) // n = 2
	pforExc = uv(pforExc, 0)             // base
	pforExc = append(pforExc, 0)         // width 0: no packed bytes
	pforExc = uv(pforExc, 1)             // one exception
	pforExc = uv(pforExc, 1<<63)         // position delta
	pforExc = uv(pforExc, 0)             // value

	pdictLen := uv([]byte{byte(PDict)}, 1) // n = 1
	pdictLen = uv(pdictLen, 1)             // one dictionary entry
	pdictLen = uv(pdictLen, 1<<63)         // of impossible length
	pdictLen = append(pdictLen, "abc"...)

	rawLen := uv([]byte{byte(None)}, 1) // n = 1
	rawLen = uv(rawLen, 1<<63)
	rawLen = append(rawLen, "abc"...)

	ints := map[string][]byte{
		"pfor exception position delta 2^63": pforExc,
		"pfor row count 2^62":                uv([]byte{byte(PFOR)}, 1<<62),
		"raw int row count 2^62":             uv([]byte{byte(None)}, 1<<62),
	}
	strs := map[string][]byte{
		"pdict entry length 2^63": pdictLen,
		"raw string length 2^63":  rawLen,
	}
	for name, block := range ints {
		if _, _, err := DecodeInt64(nil, block); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, block := range strs {
		if _, _, err := DecodeString(nil, block); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeAllocations: the typed kernels allocate nothing; a reused
// StringDecoder allocates the block's one text string.
func TestDecodeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 16384
	for _, w := range []uint{0, 1, 13, 16, 33, 60, 64} {
		block, _ := pforBlock(rng, w, n, "5pct")
		dst := make([]int32, n)
		if a := testing.AllocsPerRun(10, func() { DecodeInts(dst, block) }); a != 0 {
			t.Errorf("PFOR w=%d: %v allocations per block", w, a)
		}
	}
	sorted := make([]int64, n)
	strs := make([]string, n)
	for i := range sorted {
		sorted[i] = int64(i) * 3
		strs[i] = []string{"AIR", "RAIL", "SHIP"}[rng.Intn(3)]
	}
	for _, block := range [][]byte{EncodePFORDelta(nil, sorted), EncodeRLE(nil, sorted), EncodeNone(nil, sorted)} {
		dst := make([]int64, n)
		if a := testing.AllocsPerRun(10, func() { DecodeInts(dst, block) }); a != 0 {
			t.Errorf("%v: %v allocations per block", Codec(block[0]), a)
		}
	}
	var d StringDecoder
	dst := make([]string, n)
	for _, block := range [][]byte{EncodePDict(nil, strs), EncodeStringRaw(nil, strs)} {
		if a := testing.AllocsPerRun(10, func() { d.Decode(dst, block) }); a > 1 {
			t.Errorf("string %v: %v allocations per block", Codec(block[0]), a)
		}
	}
}
