package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
)

// nullAggCols are the columns of the aggregate matrix after the group
// column g: NULLable ones, then NOT NULL ones, which an empty input makes
// NULL all the same. SUM and AVG take only the numeric ones. The BIGINTs of
// big lie near 4e18, so two of them overflow an integer SUM: big takes AVG,
// which sums in float64, and not SUM.
var nullAggCols = []struct {
	name, typ string
	sum, avg  bool
}{
	{"i", "INTEGER", true, true}, {"b", "BIGINT", true, true}, {"d", "DOUBLE", true, true},
	{"dt", "DATE", false, false}, {"s", "VARCHAR", false, false}, {"o", "BOOLEAN", false, false},
	{"big", "BIGINT", false, true},
	{"ni", "INTEGER NOT NULL", true, true}, {"nb", "BIGINT NOT NULL", true, true},
	{"nd", "DOUBLE NOT NULL", true, true}, {"ns", "VARCHAR NOT NULL", false, false},
}

// nullAggRows fills three row groups. Group 1 is NULL in every column;
// group 0 is NULL throughout the first row group and mixed after it, so a
// morsel holds only NULLs of a group another morsel has values for; the
// other groups are a third NULL. Sums stay exact in a DOUBLE (big's values
// are multiples of 2^40), so every order of adding them gives the same AVG.
func nullAggRows() [][]types.Value {
	rng := rand.New(rand.NewSource(36))
	rows := make([][]types.Value, 2*colstore.BlockRows+100)
	for r := range rows {
		g := r % 5
		row := []types.Value{types.NewInt32(int32(g)),
			types.NewInt32(int32(rng.Intn(2001) - 1000)),
			types.NewInt64(int64(rng.Intn(2001)-1000) * 10_000_000),
			types.NewFloat64(float64(rng.Intn(4001)-2000) / 4),
			types.NewDate(int32(rng.Intn(20000))),
			types.NewString([]string{"", "a", "ab", "b", "zz"}[rng.Intn(5)]),
			types.NewBool(rng.Intn(2) == 0),
			types.NewInt64(int64(3_600_000+rng.Intn(100_001)) << 40),
			types.NewInt32(int32(rng.Intn(2001) - 1000)),
			types.NewInt64(int64(rng.Intn(2001)-1000) * 10_000_000),
			types.NewFloat64(float64(rng.Intn(4001)-2000) / 4),
			types.NewString([]string{"", "a", "ab", "b", "zz"}[rng.Intn(5)])}
		for c := 1; c < len(row); c++ {
			if strings.HasSuffix(nullAggCols[c-1].typ, "NOT NULL") {
				continue
			}
			if g == 1 || (g == 0 && r < colstore.BlockRows) || rng.Intn(3) == 0 {
				row[c] = types.NewNull(row[c].Kind)
			}
		}
		rows[r] = row
	}
	return rows
}

// nullAggList is the aggregate list of every query of the matrix.
func nullAggList() string {
	var aggs []string
	for _, c := range nullAggCols {
		aggs = append(aggs, "MIN("+c.name+")", "MAX("+c.name+")")
		if c.sum {
			aggs = append(aggs, "SUM("+c.name+")")
		}
		if c.avg {
			aggs = append(aggs, "AVG("+c.name+")")
		}
		aggs = append(aggs, "COUNT("+c.name+")")
	}
	return strings.Join(append(aggs, "COUNT(*)"), ", ")
}

// nullAggModel computes nullAggList over the rows keep holds as SQL defines
// it: NULLs are skipped, and an aggregate but COUNT over no value is NULL.
func nullAggModel(rows [][]types.Value, keep func(row []types.Value) bool) []string {
	var out []string
	all := 0
	for _, row := range rows {
		if keep(row) {
			all++
		}
	}
	for ci, c := range nullAggCols {
		col := ci + 1
		var lo, hi types.Value
		var sum float64
		n := 0
		for _, row := range rows {
			v := row[col]
			if !keep(row) || v.Null {
				continue
			}
			if n == 0 || types.Compare(v, lo) < 0 {
				lo = v
			}
			if n == 0 || types.Compare(v, hi) > 0 {
				hi = v
			}
			sum += v.AsFloat()
			n++
		}
		kind := rows[0][col].Kind
		if n == 0 {
			lo, hi = types.NewNull(kind), types.NewNull(kind)
		}
		out = append(out, lo.String(), hi.String())
		if c.sum {
			total := types.NewNull(types.KindInt64)
			if n > 0 {
				total = types.NewInt64(int64(sum))
				if kind == types.KindFloat64 {
					total = types.NewFloat64(sum)
				}
			}
			out = append(out, total.String())
		}
		if c.avg {
			avg := types.NewNull(types.KindFloat64)
			if n > 0 {
				avg = types.NewFloat64(sum / float64(n))
			}
			out = append(out, avg.String())
		}
		out = append(out, fmt.Sprint(n))
	}
	return append(out, fmt.Sprint(all))
}

// MIN, MAX, SUM, AVG and COUNT over NULLable columns of every kind return
// what SQL defines, grouped and ungrouped, on both table structures, serial
// and in parallel: all-NULL groups and inputs are NULL, an empty input is
// NULL over NOT NULL columns too, an empty string is a value, a worker that
// saw only NULLs of a group does not hide the values another worker saw, and
// a parallel AVG sums in float64 as a serial one does.
func TestAggregateNullableMatrix(t *testing.T) {
	rows := nullAggRows()
	db := Open()
	var cols []string
	for _, c := range nullAggCols {
		cols = append(cols, c.name+" "+c.typ)
	}
	for _, table := range []string{"v", "h"} {
		structure := map[string]string{"v": "VECTORWISE", "h": "HEAP"}[table]
		mustExec(t, db, `CREATE TABLE `+table+` (g INTEGER NOT NULL, `+strings.Join(cols, ", ")+`) WITH STRUCTURE = `+structure)
		err := db.LoadBatchFunc(table, func(emit func([]types.Value) error) error {
			for _, row := range rows {
				if err := emit(row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	aggs := nullAggList()
	if plan := explainPhysical(t, db, `SELECT g, `+aggs+` FROM v GROUP BY g WITH (PARALLEL=2)`); !strings.Contains(plan, "Xchg") {
		t.Fatalf("the grouped matrix query does not run in parallel:\n%s", plan)
	}
	check := func(q string, want [][]string) {
		t.Helper()
		res, err := db.Exec(t.Context(), q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return
		}
		var got [][]string
		for _, row := range res.Rows {
			var vals []string
			for _, v := range row {
				vals = append(vals, v.String())
			}
			got = append(got, vals)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n got %v\nwant %v", q, got, want)
		}
	}
	for _, table := range []string{"v", "h"} {
		for _, with := range []string{"", " WITH (PARALLEL=2)"} {
			var grouped [][]string
			for g := range 5 {
				grouped = append(grouped, append([]string{fmt.Sprint(g)},
					nullAggModel(rows, func(row []types.Value) bool { return row[0].I64 == int64(g) })...))
			}
			check(`SELECT g, `+aggs+` FROM `+table+` GROUP BY g ORDER BY g`+with, grouped)
			for _, where := range []struct {
				cond string
				keep func(g int64) bool
			}{
				{"TRUE", func(int64) bool { return true }},
				{"g = 0", func(g int64) bool { return g == 0 }},
				{"g = 1", func(g int64) bool { return g == 1 }},
				{"g = 99", func(int64) bool { return false }},
			} {
				want := nullAggModel(rows, func(row []types.Value) bool { return where.keep(row[0].I64) })
				check(`SELECT `+aggs+` FROM `+table+` WHERE `+where.cond+with, [][]string{want})
			}
		}
	}
}
