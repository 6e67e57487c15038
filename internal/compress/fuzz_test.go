package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The fuzz targets hold every decoder of untrusted block bytes to one
// invariant: an error, never a panic, and never more memory than a small
// multiple of the input plus the row cap. Whenever the reference decoder
// accepts the input, the kernels must return its values (narrowed) and its
// unconsumed tail.

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding input may allocate: the destination (at most
// MaxBlockRows values of perRow bytes), dictionary slots and one text string
// bounded by the input, and slack for the runtime's own bookkeeping.
func allocBound(input []byte, perRow int) uint64 {
	return uint64(perRow*MaxBlockRows + 64*len(input) + 1<<20)
}

func FuzzDecodeInts(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for w := uint(0); w <= 64; w++ {
		for _, mode := range []string{"none", "5pct", "below"} {
			block, vals := pforBlock(rng, w, 70, mode)
			f.Add(block)
			f.Add(EncodePFORDelta(nil, vals))
		}
	}
	f.Add(EncodeRLE(nil, []int64{7, 7, 7, -1, -1, 9}))
	f.Add(EncodeNone(nil, []int64{1, -1, 1 << 62}))
	f.Add(EncodePFOR(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []int64
		var rest []byte
		var err error
		if a := allocated(func() { got, rest, err = DecodeInt64(nil, data) }); a > allocBound(data, 8) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), a)
		}
		want, wantRest, refErr := refDecodeInt64(data)
		if refErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("reference accepts, DecodeInt64: %v", err)
		}
		if !slices.Equal(got, want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("DecodeInt64 differs from the reference (%d values, %d left; reference %d, %d)",
				len(got), len(rest), len(want), len(wantRest))
		}
		narrow := make([]int32, len(want))
		rest, err = DecodeInts(narrow, data)
		if err != nil || !bytes.Equal(rest, wantRest) {
			t.Fatalf("int32: %v, %d left", err, len(rest))
		}
		for i, v := range want {
			if narrow[i] != int32(v) {
				t.Fatalf("int32 value %d = %d, want %d", i, narrow[i], int32(v))
			}
		}
		// The other typed entry points must not panic on the same bytes.
		DecodeFloat64s(make([]float64, len(want)), data)
		DecodeBools(make([]bool, len(want)), data)
	})
}

func FuzzDecodeString(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, entries := range []int{1, 2, 3, 255, 256, 257, 70000} {
		vals := make([]string, 300)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", rng.Intn(entries))
		}
		f.Add(EncodePDict(nil, vals))
		f.Add(EncodeStringRaw(nil, vals[:20]))
	}
	f.Add(EncodePDict(nil, nil))
	f.Add(EncodeStringRaw(nil, []string{"", "a\x00b"}))
	var d StringDecoder // kept across inputs, as a scanner keeps it across blocks
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []string
		var rest []byte
		var err error
		if a := allocated(func() { got, rest, err = DecodeString(nil, data) }); a > allocBound(data, 16) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), a)
		}
		want, wantRest, refErr := refDecodeString(data)
		if refErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("reference accepts, DecodeString: %v", err)
		}
		if !slices.Equal(got, want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("DecodeString differs from the reference (%d values, %d left; reference %d, %d)",
				len(got), len(rest), len(want), len(wantRest))
		}
		reused := make([]string, len(want))
		rest, err = d.Decode(reused, data)
		if err != nil || !slices.Equal(reused, want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("reused decoder: %v", err)
		}
	})
}

// FuzzDictCodes holds the entry point of filtering on codes — open a PDICT
// block, unpack its codes, map a range to codes — to the same invariant, and
// ties it to the decoder: when the block opens and its codes unpack, the
// strings they gather are what DecodeString returns, and whenever
// DecodeString accepts a PDICT block, so does the code path. Over a sorted
// dictionary, CodeRange's interval holds exactly the entries in [lo, hi].
func FuzzDictCodes(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, entries := range []int{1, 2, 3, 255, 256, 257} {
		vals := make([]string, 300)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%03d", rng.Intn(entries))
		}
		f.Add(EncodePDict(nil, vals), "v001", "v100")
	}
	f.Add(EncodePDict(nil, nil), "", "")
	f.Add(EncodeStringRaw(nil, []string{"a", "b"}), "a", "b")
	f.Fuzz(func(t *testing.T, data []byte, lo, hi string) {
		codes, ok := sized([]int32(nil), data)
		if !ok {
			return
		}
		var d StringDecoder
		var blk DictBlock
		var rest []byte
		var err error
		if a := allocated(func() {
			if blk, rest, err = d.OpenPDict(data, len(codes)); err == nil {
				err = blk.Codes(codes, 0)
			}
		}); a > allocBound(data, 0) {
			t.Fatalf("opening %d bytes allocated %d", len(data), a)
		}
		want, wantRest, wantErr := DecodeString(nil, data)
		if err != nil {
			if wantErr == nil && Codec(data[0]) == PDict {
				t.Fatalf("DecodeString accepts the block, the code path: %v", err)
			}
			return
		}
		if wantErr != nil || !bytes.Equal(rest, wantRest) {
			t.Fatalf("code path accepts the block, DecodeString: %v (%d left, code path %d)", wantErr, len(wantRest), len(rest))
		}
		got := make([]string, len(codes))
		blk.Gather(got, codes, nil)
		if !slices.Equal(got, want) {
			t.Fatal("gathered codes differ from DecodeString")
		}
		if len(codes) > 8 {
			tail := make([]int32, len(codes)-8)
			if err := blk.Codes(tail, 8); err != nil || !slices.Equal(tail, codes[8:]) {
				t.Fatalf("codes from row 8: %v", err)
			}
		}
		from, to := blk.CodeRange(&lo, &hi)
		if from < 0 || to > int32(len(blk.Dict)) {
			t.Fatalf("CodeRange [%d, %d) outside a dictionary of %d", from, to, len(blk.Dict))
		}
		if !slices.IsSorted(blk.Dict) {
			return
		}
		for c, v := range blk.Dict {
			if in := int32(c) >= from && int32(c) < to; in != (lo <= v && v <= hi) {
				t.Fatalf("entry %d (%q) in [%d, %d) is %v for [%q, %q]", c, v, from, to, in, lo, hi)
			}
		}
	})
}

// fuzzInts decodes fuzz bytes into a block: data[0] picks how many bytes
// (1 to 8) make a value and whether the values are running sums, so the
// fuzzer reaches narrow, wide, sorted and outlier-ridden blocks alike; the
// rest are the values, little-endian and sign-extended.
func fuzzInts(data []byte) []int64 {
	if len(data) == 0 {
		return nil
	}
	k, sums := int(data[0]%8)+1, data[0]&8 != 0
	data = data[1:]
	vals := make([]int64, 0, len(data)/k)
	var acc int64
	for ; len(data) >= k; data = data[k:] {
		var u uint64
		for i := k - 1; i >= 0; i-- {
			u = u<<8 | uint64(data[i])
		}
		v := int64(u<<(64-8*k)) >> (64 - 8*k)
		if sums {
			acc += v
			v = acc
		}
		vals = append(vals, v)
	}
	return vals
}

func FuzzChooseInt64(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range intShapes {
		vals := shape.gen(rng, 40)
		for _, k := range []byte{1, 2, 4, 8} {
			data := []byte{k - 1}
			for _, v := range vals {
				for i := 0; i < int(k); i++ {
					data = append(data, byte(v>>(8*i)))
				}
			}
			f.Add(data)
		}
	}
	f.Add([]byte{8 + 1, 1, 0, 1, 0, 200, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := fuzzInts(data)
		got, codec := ChooseInt64(nil, vals)
		want, wantCodec := refChooseInt64(nil, vals)
		if codec != wantCodec || !bytes.Equal(got, want) {
			t.Fatalf("ChooseInt64 of %v: %v block %x, reference %v block %x", vals, codec, got, wantCodec, want)
		}
	})
}

// FuzzChooseString splits the fuzz bytes after the first at the first byte.
func FuzzChooseString(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range strShapes {
		f.Add(append([]byte{0}, strings.Join(shape.gen(rng, 30), "\x00")...))
	}
	f.Add([]byte{','})
	f.Add([]byte(",a,,b,a,a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []string
		if len(data) > 0 {
			vals = strings.Split(string(data[1:]), string(data[:1]))
		}
		got, codec := ChooseString(nil, vals)
		want, wantCodec := refChooseString(nil, vals)
		if codec != wantCodec || !bytes.Equal(got, want) {
			t.Fatalf("ChooseString of %q: %v block %x, reference %v block %x", vals, codec, got, wantCodec, want)
		}
	})
}
