package types

import (
	"fmt"
	"math"
)

// Dates are stored as int32 day numbers relative to the Unix epoch
// (1970-01-01 = day 0). The civil-date conversions below use the classic
// days-from-civil algorithm (Howard Hinnant's formulation), which is exact
// over the proleptic Gregorian calendar and branch-light — important because
// date extraction runs inside vectorized primitives.

// DateFromYMD converts a civil date to a day number.
func DateFromYMD(y, m, d int) int32 { return int32(daysFromCivil(y, m, d)) }

// daysFromCivil is DateFromYMD's day number before it is narrowed to int32.
func daysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift so 1970-01-01 = 0
}

// YMDFromDate converts a day number back to a civil date.
func YMDFromDate(days int32) (y, m, d int) {
	z := int64(days) + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// DateYear extracts the year of a day number.
func DateYear(days int32) int32 { y, _, _ := YMDFromDate(days); return int32(y) }

// DateMonth extracts the month (1..12).
func DateMonth(days int32) int32 { _, m, _ := YMDFromDate(days); return int32(m) }

// DateDay extracts the day of month (1..31).
func DateDay(days int32) int32 { _, _, d := YMDFromDate(days); return int32(d) }

// DateQuarter extracts the quarter (1..4).
func DateQuarter(days int32) int32 { return (DateMonth(days)-1)/3 + 1 }

// DateDayOfWeek returns ISO day of week, Monday=1 .. Sunday=7.
// Day 0 (1970-01-01) was a Thursday (=4).
func DateDayOfWeek(days int32) int32 {
	dow := (int64(days) + 3) % 7 // 0=Monday
	if dow < 0 {
		dow += 7
	}
	return int32(dow) + 1
}

// DateAddMonths shifts a date by n months, clamping the day to the target
// month's length (SQL ADD_MONTHS semantics). ok is false when the result
// leaves the DATE range.
func DateAddMonths(days int32, n int64) (shifted int32, ok bool) {
	// The DATE range spans fewer than 2^31 months: a longer shift leaves it,
	// and a shorter one cannot overflow the month count below.
	if n <= math.MinInt32 || n >= math.MaxInt32 {
		return 0, false
	}
	y, m, d := YMDFromDate(days)
	tot := int64(y)*12 + int64(m) - 1 + n
	ny := int(tot / 12)
	nm := int(tot%12) + 1
	if nm <= 0 {
		nm += 12
		ny--
	}
	if ml := monthLen(ny, nm); d > ml {
		d = ml
	}
	s := daysFromCivil(ny, nm, d)
	return int32(s), s == int64(int32(s))
}

func monthLen(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if isLeap(y) {
			return 29
		}
		return 28
	}
}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// ParseDate parses 'YYYY-MM-DD' into a day number.
func ParseDate(s string) (int32, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("types: invalid DATE literal %q (want YYYY-MM-DD)", s)
	}
	num := func(sub string) (int, bool) {
		n := 0
		for i := 0; i < len(sub); i++ {
			c := sub[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	y, ok1 := num(s[0:4])
	m, ok2 := num(s[5:7])
	d, ok3 := num(s[8:10])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > monthLen(y, m) {
		return 0, fmt.Errorf("types: invalid DATE literal %q", s)
	}
	return DateFromYMD(y, m, d), nil
}

// FormatDate renders a day number as 'YYYY-MM-DD'.
func FormatDate(days int32) string {
	y, m, d := YMDFromDate(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}
