package compress

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// goldenBlocks is a fixed table of column blocks covering what the store
// feeds the encoders: keys, clustered dates, low-cardinality codes, float
// bit patterns, booleans, outliers on both sides, runs, and strings of low
// and high cardinality.
func goldenBlocks() (ints [][]int64, strs [][]string) {
	rng := rand.New(rand.NewSource(20))
	const n = 16384
	gen := func(f func(i int) int64) {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		ints = append(ints, vals)
	}
	gen(func(i int) int64 { return int64(i)*4 + int64(rng.Intn(4)) })        // sorted keys
	gen(func(i int) int64 { return rng.Int63n(200_000) })                    // random keys
	gen(func(i int) int64 { return 1 + rng.Int63n(50) })                     // quantities
	gen(func(i int) int64 { return int64(8000 + i/7) })                      // clustered dates
	gen(func(i int) int64 { return int64(i / 4096) })                        // long runs
	gen(func(i int) int64 { return int64(rng.Intn(2)) })                     // booleans
	gen(func(i int) int64 { return 0 })                                      // constant
	gen(func(i int) int64 { return int64(math.Float64bits(rng.Float64())) }) // float bits
	gen(func(i int) int64 {
		return int64(math.Float64bits(float64(rng.Intn(11)) / 100))
	})
	gen(func(i int) int64 { // small range with wild outliers above and below
		switch rng.Intn(40) {
		case 0:
			return math.MaxInt64 - rng.Int63n(1000)
		case 1:
			return math.MinInt64 + rng.Int63n(1000)
		}
		return rng.Int63n(1 << 13)
	})
	gen(func(i int) int64 { return rng.Int63() - rng.Int63() }) // full range
	ints = append(ints, nil, []int64{7}, []int64{math.MinInt64, math.MaxInt64})

	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	low := make([]string, n)
	high := make([]string, n)
	for i := range low {
		low[i] = modes[rng.Intn(len(modes))]
		high[i] = fmt.Sprintf("comment %d about order %x", i, rng.Int63())
	}
	strs = append(strs, low, high, nil, []string{""}, []string{"x", "x", "x"})
	return ints, strs
}

// TestEncoderOutputGolden pins every byte ChooseInt64 and ChooseString emit
// for a fixed table: a change that speeds an encoder up must not move
// stored_bytes_per_user_byte, or any stored byte at all.
func TestEncoderOutputGolden(t *testing.T) {
	const want = "60a53cb44ddbfb60d389d5d0eba1a1dde3e931b22c246df9c94e6d8eadf219e1"
	ints, strs := goldenBlocks()
	h := sha256.New()
	for _, vals := range ints {
		buf, codec := ChooseInt64(nil, vals)
		h.Write([]byte{byte(codec)})
		h.Write(buf)
	}
	for _, vals := range strs {
		buf, codec := ChooseString(nil, vals)
		h.Write([]byte{byte(codec)})
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("encoder output changed: sha256 %s, want %s", got, want)
	}
}
