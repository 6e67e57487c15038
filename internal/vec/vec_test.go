package vec

import (
	"testing"

	"vectorwise/internal/types"
)

func TestNewAllKinds(t *testing.T) {
	for _, k := range []types.Kind{types.KindBool, types.KindInt32, types.KindInt64,
		types.KindFloat64, types.KindString, types.KindDate} {
		v := New(k, 8)
		if v.Cap() != 8 || v.Len() != 0 {
			t.Errorf("New(%v) cap=%d len=%d", k, v.Cap(), v.Len())
		}
	}
}

func TestNewInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(types.KindInvalid, 4)
}

func TestSetGetRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.NewBool(true), types.NewInt32(-5), types.NewInt64(1 << 40),
		types.NewFloat64(3.25), types.NewString("xyz"), types.NewDate(12345),
	}
	for _, val := range vals {
		v := New(val.Kind, 4)
		v.SetLen(1)
		v.Set(0, val)
		got := v.Get(0)
		if got.String() != val.String() {
			t.Errorf("roundtrip %v: got %v", val, got)
		}
	}
}

func TestAppendGrows(t *testing.T) {
	v := New(types.KindInt64, 2)
	for i := 0; i < 100; i++ {
		v.Append(types.NewInt64(int64(i)))
	}
	if v.Len() != 100 {
		t.Fatalf("len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		if v.I64[i] != int64(i) {
			t.Fatalf("v[%d] = %d", i, v.I64[i])
		}
	}
}

func TestFill(t *testing.T) {
	v := New(types.KindFloat64, 0)
	v.Fill(types.NewInt64(7), 10) // cross-kind fill promotes to float
	if v.Len() != 10 || v.F64[9] != 7.0 {
		t.Fatalf("fill: %v", v)
	}
	s := New(types.KindString, 0)
	s.Fill(types.NewString("ab"), 3)
	if s.Str[2] != "ab" {
		t.Fatal("string fill")
	}
}

func TestCopyFromWithSel(t *testing.T) {
	src := New(types.KindInt32, 8)
	src.SetLen(8)
	for i := range src.I32 {
		src.I32[i] = int32(i * 10)
	}
	dst := New(types.KindInt32, 0)
	dst.CopyFrom(src, []int32{1, 3, 5}, 3)
	if dst.Len() != 3 || dst.I32[0] != 10 || dst.I32[1] != 30 || dst.I32[2] != 50 {
		t.Fatalf("CopyFrom sel: %v", dst)
	}
	dst2 := New(types.KindInt32, 0)
	dst2.CopyFrom(src, nil, 4)
	if dst2.Len() != 4 || dst2.I32[3] != 30 {
		t.Fatalf("CopyFrom dense: %v", dst2)
	}
}

func TestGatherAppend(t *testing.T) {
	src := New(types.KindString, 4)
	src.SetLen(4)
	copy(src.Str, []string{"a", "b", "c", "d"})
	dst := New(types.KindString, 0)
	dst.GatherFrom(src, []int32{3, 0})
	dst.GatherFrom(src, []int32{2})
	if dst.Len() != 3 || dst.Str[0] != "d" || dst.Str[1] != "a" || dst.Str[2] != "c" {
		t.Fatalf("gather: %v", dst.Str[:3])
	}
	dst.AppendVector(src)
	if dst.Len() != 7 || dst.Str[6] != "d" {
		t.Fatalf("append vector: %v", dst.Str[:dst.Len()])
	}
}

// Appending a vector at a time must reallocate O(log n) times — a store that
// grew to exactly what each append needs would copy itself once per vector —
// and typed row copies must agree with the boxed ones on every kind.
func TestAppendsAreAmortisedAndTyped(t *testing.T) {
	vals := []types.Value{types.NewBool(true), types.NewInt32(-7), types.NewInt64(1 << 40),
		types.NewFloat64(2.5), types.NewString("x"), types.NewDate(9000)}
	for _, val := range vals {
		src := New(val.Kind, 64)
		src.Fill(val, 64)
		dst := New(val.Kind, 0)
		reallocs, prevCap := 0, dst.Cap()
		for i := 0; i < 1024; i++ {
			if i%2 == 0 {
				dst.AppendVector(src)
			} else {
				dst.GatherFrom(src, []int32{5, 6, 7})
			}
			dst.AppendRow(src, 3)
			if dst.Cap() != prevCap {
				reallocs, prevCap = reallocs+1, dst.Cap()
			}
		}
		if want := 512*64 + 512*3 + 1024; dst.Len() != want {
			t.Fatalf("%v: len %d, want %d", val.Kind, dst.Len(), want)
		}
		if reallocs > 20 {
			t.Fatalf("%v: %d reallocations for %d values", val.Kind, reallocs, dst.Len())
		}
		dst.CopyRow(0, src, 1)
		for _, i := range []int{0, 64, dst.Len() - 1} {
			if got := dst.Get(i); got != val {
				t.Fatalf("%v: value %d = %v, want %v", val.Kind, i, got, val)
			}
		}
	}
}

func TestSetLenBeyondCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(types.KindInt64, 2).SetLen(3)
}

func TestBatchBasics(t *testing.T) {
	s := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.String))
	b := NewBatchFromSchema(s, 4)
	b.SetLen(3)
	b.Vecs[0].I64[0], b.Vecs[0].I64[1], b.Vecs[0].I64[2] = 10, 20, 30
	b.Vecs[1].Str[0], b.Vecs[1].Str[1], b.Vecs[1].Str[2] = "x", "y", "z"
	if b.Rows() != 3 || b.Full() != 3 {
		t.Fatal("rows")
	}
	b.Sel = []int32{0, 2}
	if b.Rows() != 2 || b.RowIndex(1) != 2 {
		t.Fatal("sel rows")
	}
	row := b.GetRow(1)
	if row[0].Int64() != 30 || row[1].Str != "z" {
		t.Fatalf("GetRow: %v", row)
	}
}

// Clone compacts: the selected rows come out dense, in an unaliased batch.
func TestBatchCompactClone(t *testing.T) {
	b := NewBatch([]types.Kind{types.KindInt32}, 5)
	b.SetLen(5)
	for i := range b.Vecs[0].I32 {
		b.Vecs[0].I32[i] = int32(i)
	}
	b.Sel = []int32{1, 4}
	c := b.Clone()
	if c.Sel != nil || c.Rows() != 2 || c.Vecs[0].I32[0] != 1 || c.Vecs[0].I32[1] != 4 {
		t.Fatalf("clone: %v", c.Vecs[0].I32[:c.Rows()])
	}
	c.Vecs[0].I32[0] = 99
	if b.Vecs[0].I32[1] == 99 {
		t.Fatal("clone aliases original")
	}
}

func TestIdentity(t *testing.T) {
	s := Identity(nil, 4)
	if len(s) != 4 || s[3] != 3 {
		t.Fatalf("identity: %v", s)
	}
	s2 := Identity(s, 2)
	if len(s2) != 2 {
		t.Fatal("identity reuse")
	}
}
