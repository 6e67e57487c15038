package primitives

import "strings"

// String primitives. The paper's "Many Functions" bullet: the SQL standard
// plus migration compatibility required dozens of functions, implemented
// efficiently either natively in the kernel (this file) or by rewriting into
// combinations of others (internal/rewriter).

// UpperV computes dst = UPPER(a).
func UpperV(dst, a []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = strings.ToUpper(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = strings.ToUpper(a[i])
	}
}

// LowerV computes dst = LOWER(a).
func LowerV(dst, a []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = strings.ToLower(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = strings.ToLower(a[i])
	}
}

// LengthV computes dst = LENGTH(a) in bytes.
func LengthV(dst []int64, a []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = int64(len(a[i]))
		}
		return
	}
	for _, i := range sel {
		dst[i] = int64(len(a[i]))
	}
}

// ConcatVV computes dst = a || b.
func ConcatVV(dst, a, b []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		b = b[:len(dst)]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] + b[i]
	}
}

// ConcatVC computes dst = a || c.
func ConcatVC(dst, a []string, c string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = a[i] + c
		}
		return
	}
	for _, i := range sel {
		dst[i] = a[i] + c
	}
}

// ConcatCV computes dst = c || a.
func ConcatCV(dst []string, c string, a []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = c + a[i]
		}
		return
	}
	for _, i := range sel {
		dst[i] = c + a[i]
	}
}

// substr implements SQL SUBSTR with 1-based start; out-of-range arguments
// clamp rather than error, per the standard.
func substr(s string, start, length int64) string {
	if length < 0 {
		length = 0
	}
	from := start - 1
	if from < 0 {
		// Negative/zero start positions eat into the length (SQL behaviour).
		length += from
		from = 0
		if length < 0 {
			length = 0
		}
	}
	if from >= int64(len(s)) {
		return ""
	}
	to := int64(len(s))
	if length < to-from {
		to = from + length
	}
	return s[from:to]
}

// SubstrVCC computes dst = SUBSTR(a, start, length) with constant bounds.
func SubstrVCC(dst, a []string, start, length int64, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = substr(a[i], start, length)
		}
		return
	}
	for _, i := range sel {
		dst[i] = substr(a[i], start, length)
	}
}

// SubstrVVV computes dst = SUBSTR(a, start[i], length[i]).
func SubstrVVV(dst, a []string, start, length []int64, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = substr(a[i], start[i], length[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = substr(a[i], start[i], length[i])
	}
}

// TrimV computes dst = TRIM(a) (both sides, spaces).
func TrimV(dst, a []string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = strings.TrimSpace(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = strings.TrimSpace(a[i])
	}
}

// LTrimV computes dst = LTRIM(a).
func LTrimV(dst, a []string, sel []int32) {
	f := func(s string) string { return strings.TrimLeft(s, " ") }
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = f(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = f(a[i])
	}
}

// RTrimV computes dst = RTRIM(a).
func RTrimV(dst, a []string, sel []int32) {
	f := func(s string) string { return strings.TrimRight(s, " ") }
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = f(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = f(a[i])
	}
}

// ReplaceVCC computes dst = REPLACE(a, old, new) with constant patterns.
func ReplaceVCC(dst, a []string, old, new string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = strings.ReplaceAll(a[i], old, new)
		}
		return
	}
	for _, i := range sel {
		dst[i] = strings.ReplaceAll(a[i], old, new)
	}
}

// PositionVC computes dst = POSITION(needle IN a), 1-based, 0 when absent.
func PositionVC(dst []int64, a []string, needle string, sel []int32) {
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = int64(strings.Index(a[i], needle)) + 1
		}
		return
	}
	for _, i := range sel {
		dst[i] = int64(strings.Index(a[i], needle)) + 1
	}
}

// LPadVC computes dst = LPAD(a, width, pad).
func LPadVC(dst, a []string, width int64, pad string, sel []int32) {
	f := func(s string) string { return padStr(s, int(width), pad, true) }
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = f(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = f(a[i])
	}
}

// RPadVC computes dst = RPAD(a, width, pad).
func RPadVC(dst, a []string, width int64, pad string, sel []int32) {
	f := func(s string) string { return padStr(s, int(width), pad, false) }
	if sel == nil {
		a = a[:len(dst)]
		for i := range dst {
			dst[i] = f(a[i])
		}
		return
	}
	for _, i := range sel {
		dst[i] = f(a[i])
	}
}

func padStr(s string, width int, pad string, left bool) string {
	if width <= len(s) {
		return s[:max(width, 0)]
	}
	if pad == "" {
		return s
	}
	need := width - len(s)
	var b strings.Builder
	b.Grow(need)
	for b.Len() < need {
		rem := need - b.Len()
		if rem >= len(pad) {
			b.WriteString(pad)
		} else {
			b.WriteString(pad[:rem])
		}
	}
	if left {
		return b.String() + s
	}
	return s + b.String()
}

// LIKE support. Patterns are compiled once per query into a matcher, then
// applied vector-at-a-time — compiling per value would be exactly the kind
// of per-tuple overhead vectorization exists to avoid.

// LikeMatcher is a compiled SQL LIKE pattern (% = any run, _ = any byte,
// backslash escapes). Compilation detects the four common shapes (exact,
// prefix, suffix, contains) and dispatches them to direct string operations;
// everything else uses an iterative backtracking matcher.
type LikeMatcher struct {
	pattern string
	// Fast paths detected at compile time:
	kind    likeKind
	literal string
}

type likeKind uint8

const (
	likeGeneral likeKind = iota
	likeExact
	likePrefix
	likeSuffix
	likeContains
)

// CompileLike builds a matcher for a LIKE pattern.
func CompileLike(pattern string) *LikeMatcher {
	m := &LikeMatcher{pattern: pattern, kind: likeGeneral}
	// Classify: fast paths require no '_' and no escapes, with '%' only at
	// the very ends.
	inner := pattern
	hasL, hasR := false, false
	for len(inner) > 0 && inner[0] == '%' {
		hasL = true
		inner = inner[1:]
	}
	for len(inner) > 0 && inner[len(inner)-1] == '%' {
		hasR = true
		inner = inner[:len(inner)-1]
	}
	if !strings.ContainsAny(inner, "%_\\") {
		switch {
		case !hasL && !hasR:
			m.kind = likeExact
		case !hasL && hasR:
			m.kind = likePrefix
		case hasL && !hasR:
			m.kind = likeSuffix
		default:
			m.kind = likeContains
		}
		m.literal = inner
	}
	return m
}

// Match reports whether s matches the compiled pattern.
func (m *LikeMatcher) Match(s string) bool {
	switch m.kind {
	case likeExact:
		return s == m.literal
	case likePrefix:
		return strings.HasPrefix(s, m.literal)
	case likeSuffix:
		return strings.HasSuffix(s, m.literal)
	case likeContains:
		return strings.Contains(s, m.literal)
	}
	return likeMatch(s, m.pattern)
}

// likeMatch is the classic iterative wildcard matcher with single-level
// backtracking on the most recent '%'.
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		if pi < len(p) {
			switch c := p[pi]; {
			case c == '\\' && pi+1 < len(p):
				if p[pi+1] == s[si] {
					si++
					pi += 2
					continue
				}
			case c == '%':
				star, mark = pi, si
				pi++
				continue
			case c == '_' || c == s[si]:
				si++
				pi++
				continue
			}
		}
		if star >= 0 {
			mark++
			si = mark
			pi = star + 1
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// SelLikeVC selects positions whose string matches the compiled pattern.
// It writes each candidate and advances by the match, as the primitives of
// select.go do.
func SelLikeVC(dst []int32, a []string, m *LikeMatcher, sel []int32, n int) []int32 {
	k := 0
	if sel == nil {
		dst = selDst(dst, n)
		for i, v := range a[:n] {
			dst[k] = int32(i)
			k += b2i(m.Match(v))
		}
		return dst[:k]
	}
	dst = selDst(dst, len(sel))
	for _, i := range sel {
		dst[k] = i
		k += b2i(m.Match(a[i]))
	}
	return dst[:k]
}
