package primitives

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCaseAndLength(t *testing.T) {
	a := []string{"Hello", "WORLD"}
	up := make([]string, 2)
	UpperV(up, a, nil)
	if up[0] != "HELLO" {
		t.Fatal("upper")
	}
	lo := make([]string, 2)
	LowerV(lo, a, nil)
	if lo[1] != "world" {
		t.Fatal("lower")
	}
	ln := make([]int64, 2)
	LengthV(ln, a, nil)
	if ln[0] != 5 {
		t.Fatal("length")
	}
}

func TestConcat(t *testing.T) {
	a := []string{"a", "b"}
	b := []string{"1", "2"}
	dst := make([]string, 2)
	ConcatVV(dst, a, b, nil)
	if dst[1] != "b2" {
		t.Fatal("vv")
	}
	ConcatVC(dst, a, "!", nil)
	if dst[0] != "a!" {
		t.Fatal("vc")
	}
	ConcatCV(dst, "<", a, nil)
	if dst[1] != "<b" {
		t.Fatal("cv")
	}
}

func TestSubstr(t *testing.T) {
	cases := []struct {
		s      string
		start  int64
		length int64
		want   string
	}{
		{"hello", 1, 3, "hel"},
		{"hello", 2, 10, "ello"},
		{"hello", 0, 3, "he"},  // start 0 eats one char of length
		{"hello", -1, 4, "he"}, // negative start
		{"hello", 6, 2, ""},    // past end
		{"hello", 3, 0, ""},    // zero length
		{"hello", 3, -1, ""},   // negative length
		{"hello", 2, math.MaxInt64, "ello"},
		{"hello", math.MinInt64, math.MaxInt64, ""},
		{"hello", math.MaxInt64, 1, ""},
	}
	for _, c := range cases {
		if got := substr(c.s, c.start, c.length); got != c.want {
			t.Errorf("substr(%q,%d,%d) = %q want %q", c.s, c.start, c.length, got, c.want)
		}
	}
	dst := make([]string, 1)
	SubstrVCC(dst, []string{"abcdef"}, 2, 3, nil)
	if dst[0] != "bcd" {
		t.Fatal("SubstrVCC")
	}
	SubstrVVV(dst, []string{"abcdef"}, []int64{3}, []int64{2}, nil)
	if dst[0] != "cd" {
		t.Fatal("SubstrVVV")
	}
}

func TestTrimFamily(t *testing.T) {
	a := []string{"  hi  "}
	dst := make([]string, 1)
	TrimV(dst, a, nil)
	if dst[0] != "hi" {
		t.Fatal("trim")
	}
	LTrimV(dst, a, nil)
	if dst[0] != "hi  " {
		t.Fatal("ltrim")
	}
	RTrimV(dst, a, nil)
	if dst[0] != "  hi" {
		t.Fatal("rtrim")
	}
}

func TestReplacePosition(t *testing.T) {
	dst := make([]string, 1)
	ReplaceVCC(dst, []string{"banana"}, "an", "AN", nil)
	if dst[0] != "bANANa" {
		t.Fatalf("replace: %q", dst[0])
	}
	pos := make([]int64, 2)
	PositionVC(pos, []string{"hello", "xyz"}, "ll", nil)
	if pos[0] != 3 || pos[1] != 0 {
		t.Fatalf("position: %v", pos)
	}
}

func TestPad(t *testing.T) {
	dst := make([]string, 1)
	LPadVC(dst, []string{"7"}, 3, "0", nil)
	if dst[0] != "007" {
		t.Fatalf("lpad: %q", dst[0])
	}
	RPadVC(dst, []string{"ab"}, 5, "xy", nil)
	if dst[0] != "abxyx" {
		t.Fatalf("rpad: %q", dst[0])
	}
	LPadVC(dst, []string{"abcdef"}, 3, "0", nil)
	if dst[0] != "abc" {
		t.Fatalf("lpad truncate: %q", dst[0])
	}
	LPadVC(dst, []string{"a"}, 4, "", nil)
	if dst[0] != "a" {
		t.Fatalf("lpad empty pad: %q", dst[0])
	}
	// A width of zero or less pads to nothing.
	for _, width := range []int64{0, -1, math.MinInt64} {
		LPadVC(dst, []string{"abc"}, width, "x", nil)
		if dst[0] != "" {
			t.Fatalf("lpad width %d: %q", width, dst[0])
		}
		RPadVC(dst, []string{"abc"}, width, "x", nil)
		if dst[0] != "" {
			t.Fatalf("rpad width %d: %q", width, dst[0])
		}
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"he%", "hello", true},
		{"he%", "ahello", false},
		{"%llo", "hello", true},
		{"%ell%", "hello", true},
		{"%ell%", "helo", false},
		{"h_llo", "hello", true},
		{"h_llo", "hllo", false},
		{"%", "", true},
		{"%", "anything", true},
		{"_", "", false},
		{"_", "x", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"a\\%b", "a%b", true},
		{"a\\%b", "aXb", false},
		{"%a%a%", "aa", true},
		{"%a%a%", "a", false},
		{"__%", "ab", true},
		{"__%", "a", false},
	}
	for _, c := range cases {
		m := CompileLike(c.pattern)
		if got := m.Match(c.s); got != c.want {
			t.Errorf("LIKE %q ~ %q = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

func TestLikeFastPathClassification(t *testing.T) {
	if CompileLike("abc").kind != likeExact {
		t.Error("exact")
	}
	if CompileLike("abc%").kind != likePrefix {
		t.Error("prefix")
	}
	if CompileLike("%abc").kind != likeSuffix {
		t.Error("suffix")
	}
	if CompileLike("%abc%").kind != likeContains {
		t.Error("contains")
	}
	if CompileLike("a_c").kind != likeGeneral {
		t.Error("underscore must be general")
	}
	if CompileLike("a%c").kind != likeGeneral {
		t.Error("inner %% must be general")
	}
}

func TestSelLike(t *testing.T) {
	a := []string{"apple pie", "banana", "apple tart", "cherry"}
	m := CompileLike("apple%")
	got := SelLikeVC(nil, a, m, nil, 4)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("sel like: %v", got)
	}
	if got := SelLikeVC(got, a, m, []int32{1, 2, 3}, 4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sel like under a selection: %v", got)
	}
	if got := SelLikeVC(nil, a, m, []int32{1, 3}, 4); got == nil || len(got) != 0 {
		t.Fatalf("sel like of no match: %#v", got)
	}
}

// Property: the general matcher agrees with the fast paths on their shapes.
func TestLikeFastPathAgreesWithGeneral(t *testing.T) {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' || r == '\\' {
				return 'x'
			}
			return r
		}, s)
	}
	f := func(lit, s string) bool {
		lit, s = sanitize(lit), sanitize(s)
		for _, pat := range []string{lit, lit + "%", "%" + lit, "%" + lit + "%"} {
			fast := CompileLike(pat).Match(s)
			slow := likeMatch(s, pat)
			if fast != slow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
