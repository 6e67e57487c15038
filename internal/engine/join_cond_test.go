package engine

import (
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
)

// rowKeys renders rows as sortable strings, so results compare as multisets.
func rowKeys(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

// An inner join whose condition holds no equality — a comma join filtered
// by an inequality, or an ON condition that is one OR — joins every pair
// and keeps those the condition makes TRUE (a NULL operand makes it
// unknown). Checked against a plain-Go model, serial and under PARALLEL 2
// over a probe side of two row groups.
func TestInnerJoinWithoutEqualityKeys(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE ta (x BIGINT, y BIGINT NOT NULL)`)
	type arow struct {
		x    int64
		null bool
		y    int64
	}
	var as []arow
	for i := 0; i < 2*colstore.BlockRows; i++ {
		as = append(as, arow{x: int64(i % 50), null: i%10 == 3, y: int64(i % 20)})
	}
	err := db.LoadBatchFunc("ta", func(emit func([]types.Value) error) error {
		for _, r := range as {
			x := types.NewInt64(r.x)
			if r.null {
				x = types.NewNull(types.KindInt64)
			}
			if err := emit([]types.Value{x, types.NewInt64(r.y)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE tb (u BIGINT, label VARCHAR NOT NULL)`)
	mustExec(t, db, `INSERT INTO tb VALUES (5, 'five'), (NULL, 'none'), (40, 'forty'), (48, 'late')`)
	bs := []struct {
		u    int64
		null bool
	}{{5, false}, {0, true}, {40, false}, {48, false}}

	// model returns the (x, u) pairs cond keeps; cond reports TRUE only.
	model := func(cond func(a arow, u int64, uNull bool) bool) []string {
		var rows [][]types.Value
		for _, a := range as {
			for _, b := range bs {
				if !cond(a, b.u, b.null) {
					continue
				}
				x, u := types.NewInt64(a.x), types.NewInt64(b.u)
				if a.null {
					x = types.NewNull(types.KindInt64)
				}
				if b.null {
					u = types.NewNull(types.KindInt64)
				}
				rows = append(rows, []types.Value{x, u})
			}
		}
		return rowKeys(rows)
	}
	less := func(a arow, u int64, uNull bool) bool { return !a.null && !uNull && a.x < u }
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT x, u FROM ta, tb WHERE ta.x < tb.u`, model(less)},
		{`SELECT x, u FROM ta JOIN tb ON ta.x < tb.u OR ta.y > 15`,
			model(func(a arow, u int64, uNull bool) bool { return less(a, u, uNull) || a.y > 15 })},
	}
	for _, c := range cases {
		sameKeys(t, c.sql, rowKeys(mustExec(t, db, c.sql).Rows), c.want)
		par := c.sql + ` WITH (PARALLEL=2)`
		sameKeys(t, par, rowKeys(mustExec(t, db, par).Rows), c.want)
		if plan := explainPhysical(t, db, par); !strings.Contains(plan, "ParallelHashJoin") {
			t.Fatalf("%s does not probe in parallel:\n%s", par, plan)
		}
	}
}

// On a LEFT JOIN an ON conjunct that reads only the right side restricts
// which right rows can match: a left row whose partners all fail it comes
// out NULL-extended, and is not dropped. A conjunct that reads the left
// side is still rejected.
func TestLeftJoinRightOnlyConjuncts(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE a (k BIGINT NOT NULL, x BIGINT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 10), (2, 20), (3, NULL), (4, 40), (5, -5)`)
	mustExec(t, db, `CREATE TABLE b (u BIGINT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO b VALUES (10, 'ten'), (20, NULL), (NULL, 'nul'), (-5, 'neg'), (40, 'forty'), (40, NULL)`)
	res := mustExec(t, db, `SELECT a.k, a.x, b.u, b.v FROM a LEFT JOIN b
		ON a.x = b.u AND b.u > 0 AND b.v IS NOT NULL ORDER BY a.k`)
	want := []string{
		"1|10|10|ten",
		"2|20|NULL|NULL", // its partner's v is NULL
		"3|NULL|NULL|NULL",
		"4|40|40|forty",  // (40, NULL) fails v IS NOT NULL
		"5|-5|NULL|NULL", // its partner fails u > 0
	}
	sameKeys(t, "left join", rowKeys(res.Rows), want)
	err := execErr(t, db, `SELECT a.k FROM a LEFT JOIN b ON a.x = b.u AND a.k > 1`)
	if !strings.Contains(err.Error(), "non-equality condition on leftouter join") {
		t.Fatalf("left-side conjunct: %v", err)
	}
}
