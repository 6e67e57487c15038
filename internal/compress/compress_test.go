package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTripInt(t *testing.T, enc func([]byte, []int64) []byte, vals []int64) {
	t.Helper()
	buf := enc(nil, vals)
	got, rest, err := DecodeInt64(nil, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if len(got) != len(vals) {
		t.Fatalf("len %d want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("val[%d] = %d want %d", i, got[i], vals[i])
		}
	}
}

func TestPFORRoundTripBasic(t *testing.T) {
	roundTripInt(t, EncodePFOR, []int64{1, 2, 3, 4, 5})
	roundTripInt(t, EncodePFOR, []int64{})
	roundTripInt(t, EncodePFOR, []int64{42})
	roundTripInt(t, EncodePFOR, []int64{-5, -5, -5})
	roundTripInt(t, EncodePFOR, []int64{math.MinInt64, math.MaxInt64, 0})
}

func TestPFORExceptions(t *testing.T) {
	// Mostly small values with a few huge outliers: the patched case.
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	vals[17] = 1 << 50
	vals[500] = -(1 << 40)
	vals[999] = math.MaxInt64
	roundTripInt(t, EncodePFOR, vals)
	// Compression should still be effective despite outliers.
	buf := EncodePFOR(nil, vals)
	if len(buf) > 8000/4 {
		t.Fatalf("PFOR with outliers too large: %d bytes for 8000 raw", len(buf))
	}
}

func TestPFORDeltaSorted(t *testing.T) {
	vals := make([]int64, 10000)
	acc := int64(1000000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		acc += rng.Int63n(5)
		vals[i] = acc
	}
	roundTripInt(t, EncodePFORDelta, vals)
	buf := EncodePFORDelta(nil, vals)
	if len(buf) > 10000 { // <1 byte/value on near-sorted data
		t.Fatalf("PFOR-DELTA on sorted data too large: %d", len(buf))
	}
}

func TestRLE(t *testing.T) {
	roundTripInt(t, EncodeRLE, []int64{7, 7, 7, 7, 1, 1, 9})
	roundTripInt(t, EncodeRLE, []int64{})
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i / 1000)
	}
	buf := EncodeRLE(nil, vals)
	if len(buf) > 60 {
		t.Fatalf("RLE on runs too large: %d", len(buf))
	}
	roundTripInt(t, EncodeRLE, vals)
}

func TestNoneCodec(t *testing.T) {
	roundTripInt(t, EncodeNone, []int64{1, -1, math.MaxInt64})
}

func TestChooseInt64(t *testing.T) {
	// Runs → RLE wins.
	runs := make([]int64, 4096)
	for i := range runs {
		runs[i] = int64(i / 512)
	}
	_, codec := ChooseInt64(nil, runs)
	if codec != RLE {
		t.Fatalf("runs chose %v", codec)
	}
	// Sorted with increments → PFOR-DELTA wins.
	sorted := make([]int64, 4096)
	for i := range sorted {
		sorted[i] = int64(i)*3 + 1000000000
	}
	_, codec = ChooseInt64(nil, sorted)
	if codec != PFORDelta {
		t.Fatalf("sorted chose %v", codec)
	}
	// Random small-range → PFOR (delta of random walk is wider).
	rng := rand.New(rand.NewSource(7))
	rnd := make([]int64, 4096)
	for i := range rnd {
		rnd[i] = rng.Int63n(1000)
	}
	buf, codec := ChooseInt64(nil, rnd)
	if codec != PFOR && codec != PFORDelta {
		t.Fatalf("random chose %v", codec)
	}
	got, _, err := DecodeInt64(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rnd {
		if got[i] != rnd[i] {
			t.Fatal("choose roundtrip mismatch")
		}
	}
}

func TestDecodeInt64Dispatch(t *testing.T) {
	vals := []int64{5, 6, 7}
	for _, enc := range []func([]byte, []int64) []byte{EncodeNone, EncodePFOR, EncodePFORDelta, EncodeRLE} {
		buf := enc(nil, vals)
		got, _, err := DecodeInt64(nil, buf)
		if err != nil || len(got) != 3 || got[2] != 7 {
			t.Fatalf("dispatch: %v %v", got, err)
		}
	}
	if _, _, err := DecodeInt64(nil, []byte{99, 0}); err == nil {
		t.Fatal("bad codec accepted")
	}
	if _, _, err := DecodeInt64(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i * 37)
	}
	buf := EncodePFOR(nil, vals)
	for _, cut := range []int{1, 2, 5, len(buf) / 2, len(buf) - 1} {
		if _, _, err := DecodeInt64(nil, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestStringRaw(t *testing.T) {
	vals := []string{"hello", "", "world", "a\x00b"}
	buf := EncodeStringRaw(nil, vals)
	got, rest, err := DecodeString(nil, buf)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("str[%d] = %q", i, got[i])
		}
	}
}

func TestPDictRoundTrip(t *testing.T) {
	vals := make([]string, 2000)
	opts := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"}
	for i := range vals {
		vals[i] = opts[i%len(opts)]
	}
	buf := EncodePDict(nil, vals)
	got, rest, err := DecodeString(nil, buf)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dict[%d] = %q", i, got[i])
		}
	}
	// Low-cardinality column compresses far below raw.
	raw := EncodeStringRaw(nil, vals)
	if len(buf)*4 > len(raw) {
		t.Fatalf("pdict %d vs raw %d: expected >4x", len(buf), len(raw))
	}
}

func TestChooseString(t *testing.T) {
	lowCard := make([]string, 1000)
	for i := range lowCard {
		lowCard[i] = []string{"x", "y"}[i%2]
	}
	buf, codec := ChooseString(nil, lowCard)
	if codec != PDict {
		t.Fatalf("low-card chose %v", codec)
	}
	got, _, err := DecodeString(nil, buf)
	if err != nil || got[1] != "y" {
		t.Fatal("choose string roundtrip")
	}
	// All-distinct long strings: raw wins.
	distinct := make([]string, 100)
	for i := range distinct {
		distinct[i] = string(rune('a'+i%26)) + string(make([]byte, 50))
	}
	// Make them actually distinct.
	for i := range distinct {
		distinct[i] = distinct[i] + string(rune('0'+i%10)) + string(rune('A'+(i/10)%26))
	}
	_, codec = ChooseString(nil, distinct)
	if codec != None {
		t.Fatalf("distinct chose %v", codec)
	}
}

func TestBitPackWidths(t *testing.T) {
	for w := uint(0); w <= 64; w++ {
		n := 100
		vals := make([]uint64, n)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(w)
		}
		buf := packBits(nil, vals, w)
		if len(buf) != packedLen(n, w) {
			t.Fatalf("w=%d: packed len %d want %d", w, len(buf), packedLen(n, w))
		}
		out := make([]uint64, n)
		unpackBits(out, buf, n, w)
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("w=%d val[%d]: %x want %x", w, i, out[i], vals[i])
			}
		}
	}
}

// Property: PFOR round-trips arbitrary data.
func TestPFORRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		buf := EncodePFOR(nil, vals)
		got, rest, err := DecodeInt64(nil, buf)
		if err != nil || len(rest) != 0 || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PFOR-DELTA and RLE round-trip arbitrary data.
func TestDeltaRLERoundTripProperty(t *testing.T) {
	f := func(vals []int64, small []uint8) bool {
		buf := EncodePFORDelta(nil, vals)
		got, _, err := DecodeInt64(nil, buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		sv := make([]int64, len(small))
		for i, b := range small {
			sv[i] = int64(b % 4)
		}
		buf2 := EncodeRLE(nil, sv)
		got2, _, err := DecodeInt64(nil, buf2)
		if err != nil || len(got2) != len(sv) {
			return false
		}
		for i := range sv {
			if got2[i] != sv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: zigzag is a bijection.
func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPDictRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		buf := EncodePDict(nil, vals)
		got, _, err := DecodeString(nil, buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
