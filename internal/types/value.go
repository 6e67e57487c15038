package types

import (
	"fmt"
	"strconv"
)

// Value is a boxed scalar used by the layers that are *not* vectorized: the
// SQL literal representation, the classic tuple-at-a-time row engine, query
// results handed to clients, and tests. The vectorized kernel never touches
// Value on hot paths — that contrast is exactly experiment E1.
type Value struct {
	Kind Kind
	Null bool
	// Exactly one of the following is meaningful, per Kind. Bool is stored
	// in I64 (0/1) and Date in I64 (days) to keep the struct small.
	I64 int64
	F64 float64
	Str string
}

// Typed constructors.

// NewNull returns a NULL value of the given kind.
func NewNull(k Kind) Value { return Value{Kind: k, Null: true} }

// NewBool boxes a boolean.
func NewBool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I64 = 1
	}
	return v
}

// NewInt32 boxes a 32-bit integer.
func NewInt32(i int32) Value { return Value{Kind: KindInt32, I64: int64(i)} }

// NewInt64 boxes a 64-bit integer.
func NewInt64(i int64) Value { return Value{Kind: KindInt64, I64: i} }

// NewFloat64 boxes a float.
func NewFloat64(f float64) Value { return Value{Kind: KindFloat64, F64: f} }

// NewString boxes a string.
func NewString(s string) Value { return Value{Kind: KindString, Str: s} }

// NewDate boxes a date given as days since the Unix epoch.
func NewDate(days int32) Value { return Value{Kind: KindDate, I64: int64(days)} }

// Bool unboxes a boolean; callers must know the kind.
func (v Value) Bool() bool { return v.I64 != 0 }

// Int32 unboxes an int32.
func (v Value) Int32() int32 { return int32(v.I64) }

// Int64 unboxes an int64.
func (v Value) Int64() int64 { return v.I64 }

// Float64 unboxes a float64.
func (v Value) Float64() float64 { return v.F64 }

// String renders the value in SQL result style. NULLs render as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindBool:
		if v.I64 != 0 {
			return "true"
		}
		return "false"
	case KindInt32, KindInt64:
		return strconv.FormatInt(v.I64, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindDate:
		return FormatDate(int32(v.I64))
	default:
		return "<invalid>"
	}
}

// AsFloat converts any numeric value to float64 for mixed-type arithmetic in
// the row engine.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat64 {
		return v.F64
	}
	return float64(v.I64)
}

// AsInt converts any integral (or bool/date) value to int64.
func (v Value) AsInt() int64 {
	if v.Kind == KindFloat64 {
		return int64(v.F64)
	}
	return v.I64
}

// Compare orders two non-NULL values of comparable kinds: -1, 0, +1.
// NULL ordering is the caller's concern (SQL gives several choices).
func Compare(a, b Value) int {
	if a.Kind.Numeric() || b.Kind.Numeric() {
		if a.Kind == KindFloat64 || b.Kind == KindFloat64 {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
	}
	switch a.Kind {
	case KindString:
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		default:
			return 0
		}
	default: // bool, ints, date all live in I64
		switch {
		case a.I64 < b.I64:
			return -1
		case a.I64 > b.I64:
			return 1
		default:
			return 0
		}
	}
}

// CompareFloat64 is the sort order of DOUBLE: the usual order on numbers
// (-0 equals +0), with NaN equal to itself and after every number, as in
// PostgreSQL. Unlike <, it is a total order, which sorting needs.
func CompareFloat64(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	// At least one side is NaN.
	switch xn, yn := x != x, y != y; {
	case xn && yn:
		return 0
	case xn:
		return 1
	default:
		return -1
	}
}

// CompareOrder is Compare for sorting: floats follow CompareFloat64, so the
// result is a total order even when a column holds NaN.
func CompareOrder(a, b Value) int {
	if a.Kind == KindFloat64 || b.Kind == KindFloat64 {
		return CompareFloat64(a.AsFloat(), b.AsFloat())
	}
	return Compare(a, b)
}

// Equal reports SQL equality of two values; NULL is not equal to anything
// (including NULL) — three-valued logic is handled above this helper.
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	if !Comparable(a.Kind, b.Kind) {
		return false
	}
	return Compare(a, b) == 0
}

// ParseValue parses the string s as a value of kind k, as used by COPY and
// the CSV loader.
func ParseValue(k Kind, s string) (Value, error) {
	switch k {
	case KindBool:
		switch s {
		case "true", "TRUE", "t", "1":
			return NewBool(true), nil
		case "false", "FALSE", "f", "0":
			return NewBool(false), nil
		}
		return Value{}, fmt.Errorf("types: invalid BOOLEAN literal %q", s)
	case KindInt32:
		i, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return Value{}, fmt.Errorf("types: invalid INTEGER literal %q", s)
		}
		return NewInt32(int32(i)), nil
	case KindInt64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: invalid BIGINT literal %q", s)
		}
		return NewInt64(i), nil
	case KindFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: invalid DOUBLE literal %q", s)
		}
		return NewFloat64(f), nil
	case KindString:
		return NewString(s), nil
	case KindDate:
		d, err := ParseDate(s)
		if err != nil {
			return Value{}, err
		}
		return NewDate(d), nil
	default:
		return Value{}, fmt.Errorf("types: cannot parse into kind %v", k)
	}
}

// SafeValue returns the "safe" in-band value used for NULL slots when a
// NULLable column is decomposed into (value, indicator) pairs. Any value
// works semantically (the indicator column governs); zero values keep
// arithmetic from faulting.
func SafeValue(k Kind) Value {
	switch k {
	case KindString:
		return NewString("")
	default:
		return Value{Kind: k}
	}
}

// FormatRange renders an inclusive [lo, hi] column restriction for plan
// display (nil = open side). Shared by the logical and physical plan
// printers so range annotations read the same at every stage.
func FormatRange(prefix string, col int, lo, hi *Value) string {
	l, h := "-inf", "+inf"
	if lo != nil {
		l = lo.String()
	}
	if hi != nil {
		h = hi.String()
	}
	return fmt.Sprintf("%s%d in [%s,%s]", prefix, col, l, h)
}
