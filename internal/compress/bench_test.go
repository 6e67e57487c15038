package compress

import (
	"fmt"
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

// BenchmarkChooseInt64 encodes one block the way a flush does: every codec
// tried, the shortest kept.
func BenchmarkChooseInt64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]int64, benchRows)
	for i := range vals {
		vals[i] = rng.Int63n(200_000)
	}
	b.SetBytes(benchRows * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChooseInt64(nil, vals)
	}
}
