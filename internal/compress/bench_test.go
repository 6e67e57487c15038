package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// Kernel benchmarks: one 16384-row block (a row group's column) per
// iteration, decoded into a destination of each width the store uses.
// MB/s counts decoded bytes.

const benchRows = 16384

func benchInts[T Int](b *testing.B, block []byte) {
	var zero T
	b.Run(fmt.Sprintf("%T", zero), func(b *testing.B) {
		dst := make([]T, benchRows)
		b.SetBytes(benchRows * int64(unsafe.Sizeof(zero)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeInts(dst, block); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodePFOR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []uint{1, 7, 13, 16, 24, 33, 62} {
		block, _ := pforBlock(rng, w, benchRows, "none")
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchInts[int32](b, block)
			benchInts[int64](b, block)
		})
	}
}

func BenchmarkDecodePFORDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, benchRows)
	acc := int64(1_000_000)
	for i := range vals {
		acc += rng.Int63n(8)
		vals[i] = acc
	}
	block := EncodePFORDelta(nil, vals)
	benchInts[int32](b, block)
	benchInts[int64](b, block)
}

func BenchmarkDecodeRLE(b *testing.B) {
	for _, run := range []int{1, 8, 4096} {
		vals := make([]int64, benchRows)
		for i := range vals {
			vals[i] = int64(i / run)
		}
		block := EncodeRLE(nil, vals)
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			benchInts[int32](b, block)
			benchInts[int64](b, block)
		})
	}
}

func BenchmarkDecodePDict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, entries := range []int{3, 7, 1000} {
		vals := make([]string, benchRows)
		var bytes int64
		for i := range vals {
			vals[i] = fmt.Sprintf("entry-%04d", rng.Intn(entries))
			bytes += int64(len(vals[i]))
		}
		block := EncodePDict(nil, vals)
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			var d StringDecoder
			dst := make([]string, benchRows)
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decode(dst, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// chooseShapes are lineitem-like column blocks, one per shape the store
// encodes: small ints, random keys, DOUBLE bit patterns, dates and a sorted
// key column.
func chooseShapes() []struct {
	name string
	vals []int64
} {
	rng := rand.New(rand.NewSource(4))
	gen := func(f func(i int) int64) []int64 {
		vals := make([]int64, benchRows)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	key := int64(0)
	return []struct {
		name string
		vals []int64
	}{
		{"qty", gen(func(int) int64 { return 1 + rng.Int63n(50) })},
		{"key", gen(func(int) int64 { return 1 + rng.Int63n(200_000) })},
		{"double", gen(func(int) int64 {
			return int64(math.Float64bits(float64(rng.Intn(90000)+10000) / 100 * float64(rng.Intn(50)+1)))
		})},
		{"date", gen(func(int) int64 { return 8035 + rng.Int63n(2557) })},
		{"sorted_key", gen(func(int) int64 { key += 1 + rng.Int63n(4); return key })},
	}
}

// BenchmarkChooseInt64 encodes one block the way a flush does, by column
// shape; impl=ref is the reference encoder that tries every width of every
// codec.
func BenchmarkChooseInt64(b *testing.B) {
	for _, shape := range chooseShapes() {
		for _, impl := range []struct {
			name   string
			choose func([]byte, []int64) ([]byte, Codec)
		}{{"new", ChooseInt64}, {"ref", refChooseInt64}} {
			b.Run(shape.name+"/impl="+impl.name, func(b *testing.B) {
				b.SetBytes(benchRows * 8)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.choose(nil, shape.vals)
				}
			})
		}
	}
}

// BenchmarkChooseString encodes one string block the way a flush does: a
// 3-value flag, a 7-value mode and a near-unique comment column.
func BenchmarkChooseString(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	for _, shape := range []struct {
		name string
		gen  func(i int) string
	}{
		{"flag", func(int) string { return [...]string{"A", "N", "R"}[rng.Intn(3)] }},
		{"mode", func(int) string { return modes[rng.Intn(len(modes))] }},
		{"comment", func(i int) string { return fmt.Sprintf("comment %d about order %x", i, rng.Int63()) }},
	} {
		vals := make([]string, benchRows)
		var bytes int64
		for i := range vals {
			vals[i] = shape.gen(i)
			bytes += int64(len(vals[i]))
		}
		for _, impl := range []struct {
			name   string
			choose func([]byte, []string) ([]byte, Codec)
		}{{"new", ChooseString}, {"ref", refChooseString}} {
			b.Run(shape.name+"/impl="+impl.name, func(b *testing.B) {
				b.SetBytes(bytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.choose(nil, vals)
				}
			})
		}
	}
}
