// Package types defines the minimal analytical type system shared by every
// layer of the engine: the SQL front-end, the optimizer, the operator tree,
// the vectorized kernel and the classic row engine.
//
// Vectorwise (and X100 before it) deliberately supported a small set of
// physical types and mapped the richer SQL surface onto them; we follow the
// same approach: BOOL, INT32, INT64, FLOAT64, STRING and DATE (a day number
// stored as INT32-width data but kept as a distinct kind for function
// dispatch).
package types

// Kind enumerates the physical value kinds the kernel can process.
type Kind uint8

// The supported physical kinds.
const (
	// KindInvalid is the zero Kind and marks unresolved or erroneous types.
	KindInvalid Kind = iota
	// KindBool is a boolean.
	KindBool
	// KindInt32 is a 32-bit signed integer.
	KindInt32
	// KindInt64 is a 64-bit signed integer.
	KindInt64
	// KindFloat64 is a 64-bit IEEE float.
	KindFloat64
	// KindString is a variable-length UTF-8 string.
	KindString
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
)

// NumKinds is the number of valid kinds plus one for KindInvalid; useful for
// dispatch tables indexed by Kind.
const NumKinds = 7

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "BOOLEAN"
	case KindInt32:
		return "INTEGER"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return "INVALID"
	}
}

// Valid reports whether k is one of the defined value kinds.
func (k Kind) Valid() bool { return k > KindInvalid && k < NumKinds }

// Numeric reports whether the kind supports arithmetic.
func (k Kind) Numeric() bool {
	return k == KindInt32 || k == KindInt64 || k == KindFloat64
}

// Integral reports whether the kind is a (signed) integer kind.
func (k Kind) Integral() bool { return k == KindInt32 || k == KindInt64 }

// Width returns the in-memory width in bytes of fixed-size kinds, and the
// average estimation width for strings (used by the optimizer's cost model).
func (k Kind) Width() int {
	switch k {
	case KindBool:
		return 1
	case KindInt32, KindDate:
		return 4
	case KindInt64, KindFloat64:
		return 8
	case KindString:
		return 16 // estimate for costing; actual strings are variable-size
	default:
		return 0
	}
}

// T is a logical SQL type: a physical kind plus nullability. The kernel
// itself is NULL-oblivious (claim C6 of the paper): NULLable columns are
// decomposed by the rewriter into a value column with a "safe" value and a
// BOOL indicator column. T carries nullability only through the logical
// layers (binder, optimizer, cross compiler).
type T struct {
	Kind     Kind
	Nullable bool
}

// Convenience constructors for the common non-nullable types.
var (
	Bool    = T{Kind: KindBool}
	Int32   = T{Kind: KindInt32}
	Int64   = T{Kind: KindInt64}
	Float64 = T{Kind: KindFloat64}
	String  = T{Kind: KindString}
	Date    = T{Kind: KindDate}
)

// Null returns the same type with the nullable flag set.
func (t T) Null() T { return T{Kind: t.Kind, Nullable: true} }

// NotNull returns the same type with the nullable flag cleared.
func (t T) NotNull() T { return T{Kind: t.Kind} }

// String renders the type, marking nullability explicitly.
func (t T) String() string {
	if t.Nullable {
		return t.Kind.String() + " NULL"
	}
	return t.Kind.String()
}

// Column is a named, typed column in a schema.
type Column struct {
	Name string
	Type T
}

// Schema is an ordered list of columns; it is the shape descriptor used by
// tables, plans and operator outputs.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, t T) Column { return Column{Name: name, Type: t} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Find returns the index of the column with the given name, or -1.
func (s *Schema) Find(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Cols))
	copy(cols, s.Cols)
	return &Schema{Cols: cols}
}

// String renders the schema as "(a BIGINT, b VARCHAR NULL)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.Cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Type.String()
	}
	return out + ")"
}

// CommonNumeric returns the widest numeric kind of a and b following SQL
// promotion rules (INT32 < INT64 < FLOAT64), or KindInvalid when either is
// non-numeric.
func CommonNumeric(a, b Kind) Kind {
	if !a.Numeric() || !b.Numeric() {
		return KindInvalid
	}
	if a == KindFloat64 || b == KindFloat64 {
		return KindFloat64
	}
	if a == KindInt64 || b == KindInt64 {
		return KindInt64
	}
	return KindInt32
}

// Comparable reports whether values of kinds a and b may be compared,
// possibly after numeric promotion.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}
