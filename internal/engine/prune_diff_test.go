package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/types"
)

// Differential test for column pruning. There is no switch to turn pruning
// off, so the reference is the query itself evaluated in plain Go over the
// rows SELECT * returns (the one statement that prunes nothing). Every
// query runs serially on the VECTORWISE table, on its HEAP copy, with
// PARALLEL=2, and twice concurrently with PARALLEL=2 through the cooperative
// buffer manager — first delta-free, then over pending INSERT/UPDATE/DELETE
// deltas that touch referenced and pruned columns alike (the PDT-merged
// path), then after CHECKPOINT. All of them must give the oracle's answer.

// Column positions of the fact table f and the dimension dm.
const (
	fID = iota // BIGINT NOT NULL PRIMARY KEY
	fG         // INTEGER NOT NULL, 0..7
	fB         // BOOLEAN NOT NULL
	fX         // DOUBLE NOT NULL, multiples of 0.25 (sums are exact in any order)
	fS         // VARCHAR NOT NULL, 'k0'..'k12'
	fD         // DATE NOT NULL
	fN         // BIGINT, NULL in a fifth of the rows
	fM         // VARCHAR, NULL in a third of the rows
)

const (
	dK     = iota // INTEGER NOT NULL, 0..5: g = 6 and 7 have no dimension row
	dLabel        // VARCHAR NOT NULL
	dW            // DOUBLE, one NULL
)

const diffDDL = `(
	id BIGINT NOT NULL PRIMARY KEY, g INTEGER NOT NULL, b BOOLEAN NOT NULL,
	x DOUBLE NOT NULL, s VARCHAR NOT NULL, d DATE NOT NULL, n BIGINT, m VARCHAR)`

type drow = []types.Value

func diffFactRow(rng *rand.Rand, id int64) drow {
	n, m := types.NewInt64(rng.Int63n(2000)), types.NewString(fmt.Sprintf("m%d", rng.Intn(9)))
	if rng.Intn(5) == 0 {
		n = types.NewNull(types.KindInt64)
	}
	if rng.Intn(3) == 0 {
		m = types.NewNull(types.KindString)
	}
	return drow{types.NewInt64(id), types.NewInt32(int32(rng.Intn(8))), types.NewBool(rng.Intn(2) == 0),
		types.NewFloat64(float64(rng.Intn(400)) * 0.25), types.NewString(fmt.Sprintf("k%d", rng.Intn(13))),
		types.NewDate(types.DateFromYMD(2019+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28))), n, m}
}

// diffDB loads the seeded fact table two row groups deep into f
// (VECTORWISE, stable storage) and fh (HEAP), and the dimension into dm/dmh.
// The buffer pool is smaller than f, the precondition for cooperative scans.
func diffDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.BufferGroups = 1
	mustExec(t, db, `CREATE TABLE f `+diffDDL)
	mustExec(t, db, `CREATE TABLE fh `+diffDDL+` WITH STRUCTURE=HEAP`)
	for _, tab := range []string{"f", "fh"} {
		rng := rand.New(rand.NewSource(42))
		err := db.LoadBatchFunc(tab, func(emit func([]types.Value) error) error {
			for id := int64(0); id < colstore.BlockRows+2777; id++ {
				if err := emit(diffFactRow(rng, id)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE TABLE dm (k INTEGER NOT NULL, label VARCHAR NOT NULL, w DOUBLE)`)
	mustExec(t, db, `CREATE TABLE dmh (k INTEGER NOT NULL, label VARCHAR NOT NULL, w DOUBLE) WITH STRUCTURE=HEAP`)
	for _, tab := range []string{"dm", "dmh"} {
		mustExec(t, db, `INSERT INTO `+tab+` VALUES (0, 'zero', 0.5), (1, 'one', 1.5), (2, 'two', NULL),
			(3, 'three', 3.5), (4, 'four', 4.5), (5, 'five', 5.5)`)
	}
	mustExec(t, db, `CHECKPOINT dm`)
	return db
}

// --- the plain-Go evaluator ---

func keep(in []drow, pred func(drow) bool) []drow {
	var out []drow
	for _, r := range in {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

func pick(in []drow, cols ...int) []drow {
	out := make([]drow, len(in))
	for i, r := range in {
		for _, c := range cols {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

// oagg is one aggregate of the oracle's group(): fn over column col
// (col -1 = COUNT(*)).
type oagg struct {
	fn  string
	col int
}

func aggregate(rows []drow, a oagg) types.Value {
	if a.col < 0 {
		return types.NewInt64(int64(len(rows)))
	}
	var vals []types.Value
	for _, r := range rows {
		if !r[a.col].Null {
			vals = append(vals, r[a.col])
		}
	}
	if a.fn == "count" {
		return types.NewInt64(int64(len(vals)))
	}
	if len(vals) == 0 {
		return types.NewNull(types.KindInvalid)
	}
	switch a.fn {
	case "min", "max":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := types.Compare(v, best); (a.fn == "min" && c < 0) || (a.fn == "max" && c > 0) {
				best = v
			}
		}
		return best
	case "sum", "avg":
		var isum int64
		var fsum float64
		for _, v := range vals {
			isum += v.I64
			fsum += v.AsFloat()
		}
		switch {
		case a.fn == "avg":
			return types.NewFloat64(fsum / float64(len(vals)))
		case vals[0].Kind == types.KindFloat64:
			return types.NewFloat64(fsum)
		}
		return types.NewInt64(isum)
	}
	panic("oracle: aggregate " + a.fn)
}

// group is GROUP BY by… with the aggregates appended; with no grouping
// columns it yields exactly one row, as SQL does over an empty input.
func group(in []drow, by []int, aggs ...oagg) []drow {
	var order []string
	members := map[string][]drow{}
	for _, r := range in {
		key := render(pick([]drow{r}, by...)[0])
		if _, seen := members[key]; !seen {
			order = append(order, key)
		}
		members[key] = append(members[key], r)
	}
	if len(by) == 0 && len(in) == 0 {
		order = []string{""}
	}
	var out []drow
	for _, key := range order {
		var row drow
		if rows := members[key]; len(rows) > 0 {
			row = pick(rows[:1], by...)[0]
		}
		for _, a := range aggs {
			row = append(row, aggregate(members[key], a))
		}
		out = append(out, row)
	}
	return out
}

// sorted orders by the given keys: column c ascending is c+1, descending
// -(c+1). NULLs sort last in either direction, as the engine's decomposed
// sort keys (indicator major) do.
func sorted(in []drow, keys ...int) []drow {
	out := append([]drow(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c, desc := k-1, false
			if k < 0 {
				c, desc = -k-1, true
			}
			a, b := out[i][c], out[j][c]
			if a.Null != b.Null {
				return b.Null
			}
			if a.Null {
				continue
			}
			if cmp := types.Compare(a, b); cmp != 0 {
				return (cmp < 0) != desc
			}
		}
		return false
	})
	return out
}

func top(in []drow, n int) []drow {
	if len(in) > n {
		return in[:n]
	}
	return in
}

// joinOn is an equi-join on l[lk] = r[rk]: "inner" and "left" emit l++r
// (left pads unmatched rows with width NULLs), "semi"/"anti" emit l rows.
// NULL keys match nothing.
func joinOn(kind string, l, r []drow, lk, rk, width int) []drow {
	var out []drow
	for _, lr := range l {
		matched := false
		for _, rr := range r {
			if types.Equal(lr[lk], rr[rk]) {
				matched = true
				if kind == "inner" || kind == "left" {
					out = append(out, append(append(drow(nil), lr...), rr...))
				}
			}
		}
		switch {
		case kind == "semi" && matched, kind == "anti" && !matched:
			out = append(out, lr)
		case kind == "left" && !matched:
			pad := append(drow(nil), lr...)
			for i := 0; i < width; i++ {
				pad = append(pad, types.NewNull(types.KindInvalid))
			}
			out = append(out, pad)
		}
	}
	return out
}

func render(r drow) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func renderAll(rows []drow, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = render(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// --- the queries ---

// diffQuery is one query: its SQL over {f} and {d}, whether the result order
// is part of the answer, and the same query in plain Go.
type diffQuery struct {
	sql     string
	ordered bool
	eval    func(f, d []drow) []drow
}

func dateVal(y, m, d int) types.Value { return types.NewDate(types.DateFromYMD(y, m, d)) }

func cnt() oagg { return oagg{"count", -1} }

var diffQueries = []diffQuery{
	// Nothing read from the scan but the row count.
	{`SELECT COUNT(*) FROM {f}`, true, func(f, _ []drow) []drow { return group(f, nil, cnt()) }},
	{`SELECT COUNT(*) FROM {f} WHERE EXISTS (SELECT * FROM {d} WHERE w > 4)`, true,
		func(f, _ []drow) []drow { return group(f, nil, cnt()) }},
	{`SELECT COUNT(*) FROM {f} WHERE NOT EXISTS (SELECT k FROM {d})`, true,
		func(_, _ []drow) []drow { return group(nil, nil, cnt()) }},
	// NULLable columns: the indicator must follow its value column.
	{`SELECT COUNT(n) FROM {f}`, true, func(f, _ []drow) []drow { return group(f, nil, oagg{"count", fN}) }},
	{`SELECT COUNT(m), COUNT(*), MAX(n) FROM {f}`, true,
		func(f, _ []drow) []drow { return group(f, nil, oagg{"count", fM}, cnt(), oagg{"max", fN}) }},
	{`SELECT COUNT(*) FROM {f} WHERE n IS NULL`, true,
		func(f, _ []drow) []drow { return group(keep(f, func(r drow) bool { return r[fN].Null }), nil, cnt()) }},
	{`SELECT COUNT(*), SUM(n) FROM {f} WHERE m IS NOT NULL AND n > 1000`, true, func(f, _ []drow) []drow {
		return group(keep(f, func(r drow) bool { return !r[fM].Null && !r[fN].Null && r[fN].I64 > 1000 }),
			nil, cnt(), oagg{"sum", fN})
	}},
	{`SELECT g, AVG(n), COUNT(n) FROM {f} GROUP BY g ORDER BY g`, true, func(f, _ []drow) []drow {
		return sorted(group(f, []int{fG}, oagg{"avg", fN}, oagg{"count", fN}), 1)
	}},
	{`SELECT m, COUNT(*) FROM {f} GROUP BY m`, false,
		func(f, _ []drow) []drow { return group(f, []int{fM}, cnt()) }},
	// Only indicators read, under a join and a TopN: the value columns drop
	// out of the scans after NULL decomposition.
	{`SELECT COUNT(w), COUNT(*) FROM {f} JOIN {d} ON g = k WHERE n IS NULL`, true, func(f, d []drow) []drow {
		return group(joinOn("inner", keep(f, func(r drow) bool { return r[fN].Null }), d, fG, 0, 3),
			nil, oagg{"count", fM + 3}, cnt())
	}},
	{`SELECT id FROM {f} WHERE m IS NULL ORDER BY id LIMIT 7`, true, func(f, _ []drow) []drow {
		return top(pick(keep(f, func(r drow) bool { return r[fM].Null }), fID), 7)
	}},
	// Plain aggregates over one and several columns.
	{`SELECT SUM(g) FROM {f}`, true, func(f, _ []drow) []drow { return group(f, nil, oagg{"sum", fG}) }},
	{`SELECT SUM(x), MIN(x), MAX(x) FROM {f}`, true, func(f, _ []drow) []drow {
		return group(f, nil, oagg{"sum", fX}, oagg{"min", fX}, oagg{"max", fX})
	}},
	{`SELECT MIN(d), MAX(d) FROM {f} WHERE g <> 0`, true, func(f, _ []drow) []drow {
		return group(keep(f, func(r drow) bool { return r[fG].I64 != 0 }), nil, oagg{"min", fD}, oagg{"max", fD})
	}},
	// Filters on columns the output drops, and on columns it keeps.
	{`SELECT COUNT(*) FROM {f} WHERE s = 'k3'`, true,
		func(f, _ []drow) []drow {
			return group(keep(f, func(r drow) bool { return r[fS].Str == "k3" }), nil, cnt())
		}},
	{`SELECT COUNT(*) FROM {f} WHERE s LIKE 'k1%' AND b`, true, func(f, _ []drow) []drow {
		return group(keep(f, func(r drow) bool { return strings.HasPrefix(r[fS].Str, "k1") && r[fB].Bool() }), nil, cnt())
	}},
	{`SELECT SUM(g) FROM {f} WHERE x > 50`, true, func(f, _ []drow) []drow {
		return group(keep(f, func(r drow) bool { return r[fX].F64 > 50 }), nil, oagg{"sum", fG})
	}},
	{`SELECT COUNT(*), SUM(x) FROM {f} WHERE d <= DATE '2020-06-30' AND g < 3`, true, func(f, _ []drow) []drow {
		cut := dateVal(2020, 6, 30)
		return group(keep(f, func(r drow) bool { return types.Compare(r[fD], cut) <= 0 && r[fG].I64 < 3 }),
			nil, cnt(), oagg{"sum", fX})
	}},
	{`SELECT id FROM {f} WHERE id < 20 ORDER BY id`, true,
		func(f, _ []drow) []drow {
			return sorted(pick(keep(f, func(r drow) bool { return r[fID].I64 < 20 }), fID), 1)
		}},
	{`SELECT id, s FROM {f} WHERE b AND g = 2 ORDER BY id LIMIT 15`, true, func(f, _ []drow) []drow {
		return top(sorted(pick(keep(f, func(r drow) bool { return r[fB].Bool() && r[fG].I64 == 2 }), fID, fS), 1), 15)
	}},
	{`SELECT id, x * 2 + g FROM {f} WHERE id < 10 ORDER BY id`, true, func(f, _ []drow) []drow {
		var out []drow
		for _, r := range sorted(keep(f, func(r drow) bool { return r[fID].I64 < 10 }), fID+1) {
			out = append(out, drow{r[fID], types.NewFloat64(r[fX].F64*2 + float64(r[fG].I64))})
		}
		return out
	}},
	// Range scans that cross the row-group boundary (and, later, the deltas).
	{`SELECT COUNT(*), SUM(x) FROM {f} WHERE id BETWEEN 9000 AND 17000`, true, func(f, _ []drow) []drow {
		return group(keep(f, func(r drow) bool { return r[fID].I64 >= 9000 && r[fID].I64 <= 17000 }),
			nil, cnt(), oagg{"sum", fX})
	}},
	{`SELECT * FROM {f} WHERE id BETWEEN 16375 AND 16395 ORDER BY id`, true, func(f, _ []drow) []drow {
		return sorted(keep(f, func(r drow) bool { return r[fID].I64 >= 16375 && r[fID].I64 <= 16395 }), fID+1)
	}},
	{`SELECT * FROM {f} WHERE id >= 16300 AND g = 7`, false, func(f, _ []drow) []drow {
		return keep(f, func(r drow) bool { return r[fID].I64 >= 16300 && r[fG].I64 == 7 })
	}},
	// GROUP BY / ORDER BY / LIMIT.
	{`SELECT g, COUNT(*) FROM {f} GROUP BY g ORDER BY g`, true,
		func(f, _ []drow) []drow { return sorted(group(f, []int{fG}, cnt()), 1) }},
	{`SELECT g, SUM(x), COUNT(n) FROM {f} GROUP BY g ORDER BY g`, true, func(f, _ []drow) []drow {
		return sorted(group(f, []int{fG}, oagg{"sum", fX}, oagg{"count", fN}), 1)
	}},
	{`SELECT b, g, MAX(id) FROM {f} WHERE d >= DATE '2021-01-01' GROUP BY b, g`, false, func(f, _ []drow) []drow {
		cut := dateVal(2021, 1, 1)
		return group(keep(f, func(r drow) bool { return types.Compare(r[fD], cut) >= 0 }), []int{fB, fG}, oagg{"max", fID})
	}},
	{`SELECT s, SUM(n) FROM {f} GROUP BY s ORDER BY s LIMIT 5`, true,
		func(f, _ []drow) []drow { return top(sorted(group(f, []int{fS}, oagg{"sum", fN}), 1), 5) }},
	{`SELECT g, COUNT(*) AS c FROM {f} WHERE s = 'k7' GROUP BY g ORDER BY c DESC, g LIMIT 3`, true, func(f, _ []drow) []drow {
		return top(sorted(group(keep(f, func(r drow) bool { return r[fS].Str == "k7" }), []int{fG}, cnt()), -2, 1), 3)
	}},
	{`SELECT DISTINCT g, b FROM {f}`, false,
		func(f, _ []drow) []drow { return group(f, []int{fG, fB}) }},
	{`SELECT id, x FROM {f} ORDER BY x DESC, id LIMIT 10`, true,
		func(f, _ []drow) []drow { return top(sorted(pick(f, fID, fX), -2, 1), 10) }},
	{`SELECT id FROM {f} ORDER BY n DESC, id LIMIT 10`, true,
		func(f, _ []drow) []drow { return pick(top(sorted(f, -(fN+1), fID+1), 10), fID) }},
	{`SELECT id, n FROM {f} WHERE g = 5 ORDER BY n, id LIMIT 12`, true, func(f, _ []drow) []drow {
		return top(sorted(pick(keep(f, func(r drow) bool { return r[fG].I64 == 5 }), fID, fN), 2, 1), 12)
	}},
	// Joins: keys used only by the condition, columns from either side.
	{`SELECT COUNT(*) FROM {f} JOIN {d} ON g = k`, true,
		func(f, d []drow) []drow { return group(joinOn("inner", f, d, fG, dK, 3), nil, cnt()) }},
	{`SELECT label, SUM(x) FROM {f} JOIN {d} ON g = k GROUP BY label ORDER BY label`, true, func(f, d []drow) []drow {
		return sorted(group(joinOn("inner", f, d, fG, dK, 3), []int{8 + dLabel}, oagg{"sum", fX}), 1)
	}},
	{`SELECT label, COUNT(*) FROM {f} JOIN {d} ON g = k WHERE w > 1 AND b GROUP BY label ORDER BY label`, true,
		func(f, d []drow) []drow {
			j := keep(joinOn("inner", f, d, fG, dK, 3), func(r drow) bool {
				return !r[8+dW].Null && r[8+dW].F64 > 1 && r[fB].Bool()
			})
			return sorted(group(j, []int{8 + dLabel}, cnt()), 1)
		}},
	{`SELECT id, label FROM {f} JOIN {d} ON g = k WHERE id < 30 ORDER BY id`, true, func(f, d []drow) []drow {
		return sorted(pick(joinOn("inner", keep(f, func(r drow) bool { return r[fID].I64 < 30 }), d, fG, dK, 3), fID, 8+dLabel), 1)
	}},
	{`SELECT COUNT(*), COUNT(w), SUM(w) FROM {f} LEFT JOIN {d} ON g = k`, true, func(f, d []drow) []drow {
		return group(joinOn("left", f, d, fG, dK, 3), nil, cnt(), oagg{"count", 8 + dW}, oagg{"sum", 8 + dW})
	}},
	{`SELECT id, w FROM {f} LEFT JOIN {d} ON g = k WHERE id < 25 ORDER BY id`, true, func(f, d []drow) []drow {
		return sorted(pick(joinOn("left", keep(f, func(r drow) bool { return r[fID].I64 < 25 }), d, fG, dK, 3), fID, 8+dW), 1)
	}},
	{`SELECT a.id, c.id FROM {f} a JOIN {f} c ON a.id = c.n WHERE a.id < 40 ORDER BY a.id, c.id`, true,
		func(f, _ []drow) []drow {
			return sorted(pick(joinOn("inner", keep(f, func(r drow) bool { return r[fID].I64 < 40 }), f, fID, fN, 8), fID, 8+fID), 1, 2)
		}},
	{`SELECT COUNT(*) FROM {f}, {d} WHERE id < 100`, true, func(f, d []drow) []drow {
		n := len(keep(f, func(r drow) bool { return r[fID].I64 < 100 })) * len(d)
		return []drow{{types.NewInt64(int64(n))}}
	}},
	// Subqueries: semi and anti joins, derived tables, a scalar.
	{`SELECT COUNT(*) FROM {f} WHERE g IN (SELECT k FROM {d})`, true,
		func(f, d []drow) []drow { return group(joinOn("semi", f, d, fG, dK, 0), nil, cnt()) }},
	{`SELECT SUM(x) FROM {f} WHERE g IN (SELECT k FROM {d} WHERE w > 1)`, true, func(f, d []drow) []drow {
		sub := keep(d, func(r drow) bool { return !r[dW].Null && r[dW].F64 > 1 })
		return group(joinOn("semi", f, sub, fG, dK, 0), nil, oagg{"sum", fX})
	}},
	{`SELECT COUNT(*), MIN(id) FROM {f} WHERE g NOT IN (SELECT k FROM {d})`, true,
		func(f, d []drow) []drow { return group(joinOn("anti", f, d, fG, dK, 0), nil, cnt(), oagg{"min", fID}) }},
	{`SELECT label FROM {d} WHERE k IN (SELECT g FROM {f} WHERE n IS NULL AND x < 1) ORDER BY label`, true,
		func(f, d []drow) []drow {
			sub := keep(f, func(r drow) bool { return r[fN].Null && r[fX].F64 < 1 })
			return sorted(pick(joinOn("semi", d, sub, dK, fG, 0), dLabel), 1)
		}},
	{`SELECT COUNT(*) FROM (SELECT id, s, x FROM {f} WHERE x < 5) t`, true,
		func(f, _ []drow) []drow {
			return group(keep(f, func(r drow) bool { return r[fX].F64 < 5 }), nil, cnt())
		}},
	{`SELECT g2, c FROM (SELECT g AS g2, COUNT(*) AS c, SUM(x) AS sx FROM {f} GROUP BY g) t ORDER BY g2`, true,
		func(f, _ []drow) []drow { return sorted(group(f, []int{fG}, cnt()), 1) }},
	{`SELECT COUNT(*) FROM {f} WHERE x > (SELECT AVG(x) FROM {f})`, true, func(f, _ []drow) []drow {
		avg := aggregate(f, oagg{"avg", fX}).F64
		return group(keep(f, func(r drow) bool { return r[fX].F64 > avg }), nil, cnt())
	}},
}

// diffDML is the delta workload: inserts at the end, updates of columns most
// queries read (x, n, b, d) and of columns most of them prune (s, m), and
// deletes — several of them straddling the row-group boundary at 16384.
var diffDML = []string{
	`INSERT INTO {f} VALUES (100000, 3, TRUE, 2.5, 'ins', DATE '2022-02-02', NULL, 'fresh'),
		(100001, 7, FALSE, 0.25, 'k3', DATE '2019-01-01', 7, NULL), (100002, 1, TRUE, 99.75, 'k7', DATE '2021-03-04', 1500, 'm1')`,
	`UPDATE {f} SET x = x + 1 WHERE g = 4 AND id < 400`,
	`UPDATE {f} SET s = 'zz' WHERE id BETWEEN 40 AND 60`,
	`UPDATE {f} SET n = NULL WHERE id BETWEEN 16380 AND 16390`,
	`UPDATE {f} SET n = 1700, m = NULL WHERE id BETWEEN 20 AND 24`,
	`UPDATE {f} SET m = 'set' WHERE id BETWEEN 5 AND 9`,
	`UPDATE {f} SET d = DATE '2030-01-01', b = FALSE WHERE id = 77`,
	`DELETE FROM {f} WHERE id BETWEEN 16376 AND 16383`,
	`DELETE FROM {f} WHERE id BETWEEN 16400 AND 16415`,
	`DELETE FROM {f} WHERE id = 0`,
	`DELETE FROM {f} WHERE s = 'k12' AND id > 18000`,
	`UPDATE {d} SET w = 7.5 WHERE k = 2`,
	`DELETE FROM {d} WHERE k = 4`,
	`INSERT INTO {d} VALUES (7, 'seven', NULL)`,
}

func TestPrunedScansAgreeWithFullRowOracle(t *testing.T) {
	db := diffDB(t)
	ctx := context.Background()
	onVW := strings.NewReplacer("{f}", "f", "{d}", "dm")
	onHeap := strings.NewReplacer("{f}", "fh", "{d}", "dmh")

	check := func(phase string, cooperative bool) {
		t.Helper()
		// SELECT * prunes nothing: these rows are the oracle's input.
		f, d := mustExec(t, db, `SELECT * FROM f`).Rows, mustExec(t, db, `SELECT * FROM dm`).Rows
		if cooperative {
			// A registered scan gives every PARALLEL scan of f company, so
			// each one attaches to the cooperative buffer manager.
			store, err := db.Store("f")
			if err != nil {
				t.Fatal(err)
			}
			sh := db.shareFor("f", store.Stable())
			if sh == nil {
				t.Fatalf("%s: no scan share for f", phase)
			}
			_, release := sh.beginScan()
			defer release()
		}
		for _, q := range diffQueries {
			want := renderAll(q.eval(f, d), q.ordered)
			expect := func(variant, text string) {
				res, err := db.Exec(ctx, text)
				if err != nil {
					t.Errorf("%s / %s: %s: %v", phase, variant, text, err)
					return
				}
				if got := renderAll(res.Rows, q.ordered); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s / %s: %s\n got %d rows: %.400v\nwant %d rows: %.400v",
						phase, variant, text, len(got), got, len(want), want)
				}
			}
			expect("vectorwise", onVW.Replace(q.sql))
			expect("heap", onHeap.Replace(q.sql))
			expect("parallel", onVW.Replace(q.sql)+` WITH (PARALLEL=2)`)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					expect("concurrent", onVW.Replace(q.sql)+` WITH (PARALLEL=2)`)
				}()
			}
			wg.Wait()
		}
	}

	check("delta-free", true)
	if _, coop, ok := db.ShareStats("f"); !ok || coop.Loads == 0 {
		t.Errorf("no scan went through the cooperative buffer manager: %+v", coop)
	}
	for _, stmt := range diffDML {
		mustExec(t, db, onVW.Replace(stmt))
		mustExec(t, db, onHeap.Replace(stmt))
	}
	if store, _ := db.Store("f"); store.PendingOps() == 0 {
		t.Fatal("DML left no pending deltas on f")
	}
	check("pending deltas", false)
	mustExec(t, db, `CHECKPOINT f`)
	mustExec(t, db, `CHECKPOINT dm`)
	check("checkpointed", true)
}
