package engine

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
)

// codeDB loads a table whose string columns cover the dictionary shapes a
// filter on codes meets: dictionaries of 1, 2, 255, 256 and 257 entries
// (code widths 0, 1, 8, 8 and 9), a column of unique strings that stays RAW,
// a NULLable column, and a column whose groups hold values far apart, so
// min/max summaries cannot skip a group its dictionary can.
func codeDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE cd (k BIGINT NOT NULL, d1 VARCHAR NOT NULL, d2 VARCHAR NOT NULL,
		d255 VARCHAR NOT NULL, d256 VARCHAR NOT NULL, d257 VARCHAR NOT NULL, raw VARCHAR NOT NULL,
		n VARCHAR, sp VARCHAR NOT NULL)`)
	sparse := [][]string{{"a", "z"}, {"m"}, {"b", "y"}, {"m", "n"}}
	rows := 3*colstore.BlockRows + 1000
	err := db.LoadBatchFunc("cd", func(emit func([]types.Value) error) error {
		for i := 0; i < rows; i++ {
			d := func(entries int) types.Value { return types.NewString(fmt.Sprintf("v%03d", i*7%entries)) }
			n := types.NewString(fmt.Sprintf("n%d", i%10))
			if i%5 == 0 {
				n = types.NewNull(types.KindString)
			}
			sp := sparse[i/colstore.BlockRows]
			err := emit([]types.Value{types.NewInt64(int64(i)), d(1), d(2), d(255), d(256), d(257),
				types.NewString(fmt.Sprintf("r%06d", (i*7919)%rows)), n, types.NewString(sp[i%len(sp)])})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// codePredicates are the string predicates the filters on codes must get
// right: every comparison (strict < and > included) and BETWEEN, against
// constants below, at both ends of, between the entries of, and above each
// column's dictionary — and two filtered columns at once.
func codePredicates() []string {
	consts := map[string][]string{
		"d1":   {"", "v000", "v0001", "w"},
		"d2":   {"v000", "v0005", "v001"},
		"d255": {"a", "v000", "v100", "v1005", "v254", "v255"},
		"d256": {"v000", "v128", "v255", "v2555"},
		"d257": {"v000", "v200", "v256", "v257"},
		"raw":  {"r000000", "r025000", "r9"},
		"n":    {"", "n0", "n45", "n9"},
		"sp":   {"c", "m", "n", "z"},
	}
	var out []string
	for _, col := range []string{"d1", "d2", "d255", "d256", "d257", "raw", "n", "sp"} {
		cs := consts[col]
		for _, c := range cs {
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				out = append(out, fmt.Sprintf("%s %s '%s'", col, op, c))
			}
		}
		out = append(out, fmt.Sprintf("%s BETWEEN '%s' AND '%s'", col, cs[0], cs[len(cs)-1]),
			fmt.Sprintf("%s BETWEEN '%s' AND '%s'", col, cs[len(cs)-1], cs[0]))
	}
	return append(out, "d255 = 'v007' AND d257 >= 'v100'", "d2 = 'v001' AND n < 'n5'",
		"sp = 'm' AND d256 BETWEEN 'v010' AND 'v020'", "d1 = 'v000' AND raw < 'r001000'")
}

// unsargable hides every column of a predicate behind a concatenation, so no
// range reaches the scan: the same predicate, evaluated by the Select alone.
func unsargable(pred string) string {
	return regexp.MustCompile(`'[^']*'|\b(d1|d2|d255|d256|d257|raw|n|sp)\b`).ReplaceAllStringFunc(pred,
		func(tok string) string {
			if tok[0] == '\'' {
				return tok
			}
			return "(" + tok + " || '')"
		})
}

// Filtering on dictionary codes is invisible in results: every predicate
// returns what the same predicate made unsargable returns — serial and
// PARALLEL=2, under pending deltas (the PDT-merge path, no filters) and
// after CHECKPOINT (new groups, filters again).
func TestCodeFiltersAgreeWithUnpushedPredicates(t *testing.T) {
	db := codeDB(t)
	preds := codePredicates()
	check := func(stage string) {
		t.Helper()
		for i, p := range preds {
			if testing.Short() && i%2 != 0 {
				continue
			}
			// The shapes take turns: each comparison operator meets each.
			shape := []string{
				`SELECT COUNT(*), MIN(k), MAX(k), SUM(k) FROM cd WHERE %s`,
				`SELECT COUNT(*), MIN(k), MAX(k), SUM(k) FROM cd WHERE %s WITH (PARALLEL=2)`,
				`SELECT d255, n, sp, COUNT(*), MIN(raw) FROM cd WHERE %s GROUP BY d255, n, sp ORDER BY d255, n, sp`,
			}[i%3]
			pushed := mustExec(t, db, fmt.Sprintf(shape, p))
			plain := mustExec(t, db, fmt.Sprintf(shape, unsargable(p)))
			if FormatResult(pushed) != FormatResult(plain) {
				t.Fatalf("%s: %s\npushed:\n%s\nnot pushed:\n%s", stage, fmt.Sprintf(shape, p),
					FormatResult(pushed), FormatResult(plain))
			}
		}
	}
	check("delta-free")
	mustExec(t, db, `UPDATE cd SET d255 = 'v007', n = NULL WHERE k < 40`)
	mustExec(t, db, `DELETE FROM cd WHERE k BETWEEN 100 AND 200`)
	mustExec(t, db, `INSERT INTO cd VALUES (-1, 'v000', 'x', 'v007', 'v000', 'v000', 'r', 'n4', 'c')`)
	check("pending deltas")
	mustExec(t, db, `CHECKPOINT cd`)
	check("after CHECKPOINT")
}

var codeDropRe = regexp.MustCompile(`dropped=(\d+) rows on codes`)

// PROFILE attributes the rows the scan dropped on codes, and a group whose
// dictionary holds no value in range is skipped like a min/max miss.
func TestProfileShowsRowsDroppedOnCodes(t *testing.T) {
	db := codeDB(t)
	text := mustExec(t, db, `PROFILE SELECT COUNT(*) FROM cd WHERE d256 = 'v001'`).Text
	m := codeDropRe.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no rows dropped on codes:\n%s", text)
	}
	want := 3*colstore.BlockRows + 1000 -
		int(mustExec(t, db, `SELECT COUNT(*) FROM cd WHERE d256 = 'v001'`).Rows[0][0].I64)
	if got, _ := strconv.Atoi(m[1]); got != want {
		t.Fatalf("dropped=%d rows on codes, want %d", got, want)
	}
	// 'c' lies inside group 0's and group 2's min/max but in neither
	// dictionary; group 1 ('m') and group 3 ('m', 'n') are above it.
	if skipped, total, ok := profileSkips(t, db, `SELECT COUNT(*) FROM cd WHERE sp = 'c'`); !ok || skipped != 4 || total != 4 {
		t.Fatalf("sp = 'c': skipped=%d/%d groups, want 4/4", skipped, total)
	}
}
