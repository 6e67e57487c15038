package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBool: "BOOLEAN", KindInt32: "INTEGER", KindInt64: "BIGINT",
		KindFloat64: "DOUBLE", KindString: "VARCHAR", KindDate: "DATE",
		KindInvalid: "INVALID",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindInt32.Numeric() || !KindInt64.Numeric() || !KindFloat64.Numeric() {
		t.Error("numeric kinds not reported numeric")
	}
	if KindString.Numeric() || KindBool.Numeric() || KindDate.Numeric() {
		t.Error("non-numeric kind reported numeric")
	}
	if !KindInt32.Integral() || !KindInt64.Integral() || KindFloat64.Integral() {
		t.Error("integral predicate wrong")
	}
	if KindInvalid.Valid() || !KindDate.Valid() {
		t.Error("valid predicate wrong")
	}
}

func TestCommonNumeric(t *testing.T) {
	if got := CommonNumeric(KindInt32, KindInt64); got != KindInt64 {
		t.Errorf("i32+i64 = %v", got)
	}
	if got := CommonNumeric(KindInt64, KindFloat64); got != KindFloat64 {
		t.Errorf("i64+f64 = %v", got)
	}
	if got := CommonNumeric(KindInt32, KindInt32); got != KindInt32 {
		t.Errorf("i32+i32 = %v", got)
	}
	if got := CommonNumeric(KindString, KindInt32); got != KindInvalid {
		t.Errorf("str+i32 = %v", got)
	}
}

func TestSchemaFind(t *testing.T) {
	s := NewSchema(Col("a", Int64), Col("b", String.Null()))
	if s.Find("b") != 1 || s.Find("a") != 0 || s.Find("zz") != -1 {
		t.Error("Find broken")
	}
	if s.Len() != 2 {
		t.Error("Len broken")
	}
	if got := s.String(); got != "(a BIGINT, b VARCHAR NULL)" {
		t.Errorf("String() = %q", got)
	}
	c := s.Clone()
	c.Cols[0].Name = "x"
	if s.Cols[0].Name != "a" {
		t.Error("Clone aliases original")
	}
}

func TestValueRoundTrip(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt32(-7), "-7"},
		{NewInt64(1 << 40), "1099511627776"},
		{NewFloat64(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewNull(KindInt64), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if Compare(NewInt64(1), NewInt64(2)) != -1 {
		t.Error("1 < 2 failed")
	}
	if Compare(NewInt64(2), NewFloat64(1.5)) != 1 {
		t.Error("mixed numeric compare failed")
	}
	if Compare(NewString("a"), NewString("b")) != -1 {
		t.Error("string compare failed")
	}
	if Compare(NewInt32(5), NewInt32(5)) != 0 {
		t.Error("equal compare failed")
	}
	if Equal(NewNull(KindInt64), NewNull(KindInt64)) {
		t.Error("NULL must not equal NULL")
	}
	if !Equal(NewInt32(3), NewInt64(3)) {
		t.Error("cross-width equality failed")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(KindInt64, "42")
	if err != nil || v.Int64() != 42 {
		t.Fatalf("ParseValue int64: %v %v", v, err)
	}
	v, err = ParseValue(KindBool, "true")
	if err != nil || !v.Bool() {
		t.Fatalf("ParseValue bool: %v %v", v, err)
	}
	if _, err = ParseValue(KindInt32, "abc"); err == nil {
		t.Fatal("expected parse error")
	}
	v, err = ParseValue(KindDate, "1999-12-31")
	if err != nil || FormatDate(v.Int32()) != "1999-12-31" {
		t.Fatalf("ParseValue date: %v %v", v, err)
	}
	if _, err = ParseValue(KindDate, "1999-13-01"); err == nil {
		t.Fatal("expected invalid month error")
	}
}

func TestDateKnownValues(t *testing.T) {
	if d := DateFromYMD(1970, 1, 1); d != 0 {
		t.Errorf("epoch = %d", d)
	}
	if d := DateFromYMD(2000, 3, 1); FormatDate(d) != "2000-03-01" {
		t.Errorf("leap-century roundtrip failed: %s", FormatDate(d))
	}
	if DateDayOfWeek(0) != 4 { // 1970-01-01 was a Thursday
		t.Errorf("epoch dow = %d", DateDayOfWeek(0))
	}
	if DateQuarter(DateFromYMD(2024, 11, 5)) != 4 {
		t.Error("quarter extraction failed")
	}
}

// Property: our civil-date conversion agrees with the Go standard library
// over a wide range of day numbers.
func TestDateAgainstStdlib(t *testing.T) {
	f := func(dRaw int32) bool {
		d := dRaw % 200000 // roughly years 1422..2517
		tm := time.Unix(0, 0).UTC().AddDate(0, 0, int(d))
		y, m, dd := YMDFromDate(d)
		if y != tm.Year() || m != int(tm.Month()) || dd != tm.Day() {
			return false
		}
		return DateFromYMD(y, m, dd) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// ADD_MONTHS clamps the day to the target month, and reports a result
// outside the DATE range rather than wrapping it.
func TestDateAddMonths(t *testing.T) {
	d := DateFromYMD(2020, 1, 31)
	for _, c := range []struct {
		from int32
		n    int64
		want string // "" when the result leaves the range
	}{
		{d, 1, "2020-02-29"},
		{d, -2, "2019-11-30"},
		{d, 12, "2021-01-31"},
		{d, 4294967297, ""},
		{d, math.MinInt64, ""},
		{d, 2000000000, ""},
		{math.MaxInt32, 0, FormatDate(math.MaxInt32)},
		{math.MaxInt32, 1, ""},
		{math.MinInt32, -1, ""},
	} {
		got, ok := DateAddMonths(c.from, c.n)
		if ok != (c.want != "") || ok && FormatDate(got) != c.want {
			t.Errorf("%s + %d months = %s (ok %v), want %q", FormatDate(c.from), c.n, FormatDate(got), ok, c.want)
		}
	}
}

func TestSafeValue(t *testing.T) {
	for _, k := range []Kind{KindBool, KindInt32, KindInt64, KindFloat64, KindString, KindDate} {
		v := SafeValue(k)
		if v.Kind != k || v.Null {
			t.Errorf("SafeValue(%v) = %#v", k, v)
		}
	}
}
