package engine

import (
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/colstore"
	"vectorwise/internal/fsim"
	"vectorwise/internal/physical"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/types"
)

// Differential test for UPDATE/DELETE on vectorwise tables. The reference is
// a plain-Go model of table f — its rows in image order, plus which of them
// are pending inserts or carry a pending modify — over prune_diff_test.go's
// row shape. Random statement streams run against every kind of delta state
// the PDT merger distinguishes; after every statement the engine's Affected,
// its whole table image and its pending-delta count must equal the model's.

// mrow is one model row. ins and mod say what the row costs in pending
// deltas: an inserted row is one op whatever happens to it later; a stable
// row is one op once modified (or deleted).
type mrow struct {
	v        drow
	ins, mod bool
}

type dmlModel struct {
	rows      []mrow
	stableDel int // deleted stable rows: one pending op each
}

func (m *dmlModel) pending() int {
	n := m.stableDel
	for _, r := range m.rows {
		if r.ins || r.mod {
			n++
		}
	}
	return n
}

func (m *dmlModel) checkpoint() {
	m.stableDel = 0
	for i := range m.rows {
		m.rows[i].ins, m.rows[i].mod = false, false
	}
}

func sameRow(a, b drow) bool {
	for i := range a {
		if a[i].Null != b[i].Null || (!a[i].Null && !types.Equal(a[i], b[i])) {
			return false
		}
	}
	return true
}

// dmlStmt is one statement and its meaning: match is the WHERE (true only
// when SQL's three-valued logic says TRUE), set the SET clauses (nil for
// DELETE). A set that fails on any matched row fails the statement, which
// must then change nothing.
type dmlStmt struct {
	sql   string
	match func(drow) bool
	set   func(drow) (drow, error)
}

// apply runs s on the model; on error the model is unchanged.
func (m *dmlModel) apply(s dmlStmt) (int, error) {
	var hit []int
	var next []drow
	for i, r := range m.rows {
		if !s.match(r.v) {
			continue
		}
		hit = append(hit, i)
		if s.set != nil {
			nv, err := s.set(append(drow(nil), r.v...))
			if err != nil {
				return 0, err
			}
			next = append(next, nv)
		}
	}
	if s.set != nil {
		for k, i := range hit {
			if sameRow(m.rows[i].v, next[k]) {
				continue // nothing changes: nothing is written
			}
			m.rows[i].v = next[k]
			m.rows[i].mod = !m.rows[i].ins
		}
		return len(hit), nil
	}
	kept := m.rows[:0:0]
	at := 0
	for i, r := range m.rows {
		if at < len(hit) && hit[at] == i {
			at++
			if !r.ins {
				m.stableDel++
			}
			continue
		}
		kept = append(kept, r)
	}
	m.rows = kept
	return len(hit), nil
}

// --- statement generator ---

type dpred struct {
	sql string
	fn  func(drow) bool
}

const dmlPredKinds = 7

// genPred makes a WHERE of the given kind: 0 equality, 1 range, 2 IS [NOT]
// NULL, 3 OR, 4 arithmetic expression, 5 a comparison of a dictionary-coded
// string column (which a delta-free scan filters on codes), 6 none. ids come
// from live rows so most predicates hit something; a fifth of the equalities
// hit nothing.
func genPred(rng *rand.Rand, m *dmlModel, kind int) dpred {
	id := func() int64 {
		if len(m.rows) == 0 || rng.Intn(5) == 0 {
			return 777777
		}
		return m.rows[rng.Intn(len(m.rows))].v[fID].I64
	}
	switch kind {
	case 0:
		if rng.Intn(3) == 0 {
			g := int64(rng.Intn(8))
			k := id()
			return dpred{fmt.Sprintf("g = %d AND id <= %d", g, k),
				func(r drow) bool { return r[fG].I64 == g && r[fID].I64 <= k }}
		}
		k := id()
		return dpred{fmt.Sprintf("id = %d", k), func(r drow) bool { return r[fID].I64 == k }}
	case 1:
		lo := id()
		if rng.Intn(3) == 0 {
			lo = colstore.BlockRows - int64(rng.Intn(40)) // straddle the row-group boundary
		}
		hi := lo + int64(rng.Intn(300))
		return dpred{fmt.Sprintf("id BETWEEN %d AND %d", lo, hi),
			func(r drow) bool { return r[fID].I64 >= lo && r[fID].I64 <= hi }}
	case 2:
		lo := id()
		hi := lo + 400
		if rng.Intn(2) == 0 {
			return dpred{fmt.Sprintf("n IS NULL AND id BETWEEN %d AND %d", lo, hi),
				func(r drow) bool { return r[fN].Null && r[fID].I64 >= lo && r[fID].I64 <= hi }}
		}
		g := int64(rng.Intn(8))
		return dpred{fmt.Sprintf("m IS NOT NULL AND g = %d AND id < %d", g, hi),
			func(r drow) bool { return !r[fM].Null && r[fG].I64 == g && r[fID].I64 < hi }}
	case 3:
		a, b, c := id(), id(), id()
		return dpred{fmt.Sprintf("id = %d OR id = %d OR (g = 7 AND id > %d AND id < %d)", a, b, c, c+200),
			func(r drow) bool {
				k := r[fID].I64
				return k == a || k == b || (r[fG].I64 == 7 && k > c && k < c+200)
			}}
	case 4:
		switch rng.Intn(3) {
		case 0:
			rem := int64(rng.Intn(97))
			return dpred{fmt.Sprintf("id %% 97 = %d", rem), func(r drow) bool { return r[fID].I64%97 == rem }}
		case 1:
			k := id()
			return dpred{fmt.Sprintf("x * 2 + g > 150 AND id < %d", k),
				func(r drow) bool { return r[fX].F64*2+float64(r[fG].I64) > 150 && r[fID].I64 < k }}
		}
		// NULL + 1 is NULL, and NULL > c is not TRUE: such rows never match.
		return dpred{"n + 1 > 1990", func(r drow) bool { return !r[fN].Null && r[fN].I64+1 > 1990 }}
	case 5:
		// s holds k0…k12 and m holds m0…m8 or NULL; k13 and m9 are in no
		// dictionary.
		k, hi := fmt.Sprintf("k%d", rng.Intn(14)), id()+3000
		switch rng.Intn(3) {
		case 0:
			return dpred{fmt.Sprintf("s = '%s' AND id < %d", k, hi),
				func(r drow) bool { return r[fS].Str == k && r[fID].I64 < hi }}
		case 1:
			lo := fmt.Sprintf("k%d", rng.Intn(13))
			return dpred{fmt.Sprintf("s BETWEEN '%s' AND '%s' AND id < %d", lo, k, hi),
				func(r drow) bool { return r[fS].Str >= lo && r[fS].Str <= k && r[fID].I64 < hi }}
		}
		mk := fmt.Sprintf("m%d", rng.Intn(10))
		return dpred{fmt.Sprintf("m < '%s' AND id < %d", mk, hi),
			func(r drow) bool { return !r[fM].Null && r[fM].Str < mk && r[fID].I64 < hi }}
	}
	return dpred{"", func(drow) bool { return true }}
}

type dset struct {
	sql string
	fn  func(drow) (drow, error)
}

// genSet makes SET clauses: constants, expressions over other columns
// (including one that changes nothing), NULL — an error when the column is
// NOT NULL — rarely an INTEGER overflow, and divisions by g, which is 0 on an
// eighth of the rows: a zero divisor fails the statement unless the row's
// result is NULL anyway or CASE/COALESCE sends the row around the division.
func genSet(rng *rand.Rand, nullable bool) dset {
	ok := func(f func(r drow)) func(drow) (drow, error) {
		return func(r drow) (drow, error) { f(r); return r, nil }
	}
	div := func(r drow, num int64) (types.Value, error) {
		if r[fG].I64 == 0 {
			return types.Value{}, fmt.Errorf("division by zero")
		}
		return types.NewInt64(num / r[fG].I64), nil
	}
	switch rng.Intn(15) {
	case 0:
		return dset{"g = 5", ok(func(r drow) { r[fG] = types.NewInt32(5) })}
	case 1:
		return dset{"s = 'upd', b = FALSE", ok(func(r drow) {
			r[fS], r[fB] = types.NewString("upd"), types.NewBool(false)
		})}
	case 2:
		return dset{"x = 1.25, d = DATE '2030-01-01'", ok(func(r drow) {
			r[fX], r[fD] = types.NewFloat64(1.25), dateVal(2030, 1, 1)
		})}
	case 3:
		return dset{"x = x * 2 + g", ok(func(r drow) { r[fX] = types.NewFloat64(r[fX].F64*2 + float64(r[fG].I64)) })}
	case 4:
		return dset{"n = n + g", ok(func(r drow) {
			if !r[fN].Null {
				r[fN] = types.NewInt64(r[fN].I64 + r[fG].I64)
			}
		})}
	case 5:
		return dset{"n = id + g, m = s", ok(func(r drow) {
			r[fN], r[fM] = types.NewInt64(r[fID].I64+r[fG].I64), r[fS]
		})}
	case 6:
		return dset{"x = x + 0, g = g", ok(func(drow) {})}
	case 7, 8:
		col, name := fN, "n"
		if rng.Intn(2) == 0 {
			col, name = fM, "m"
		}
		return dset{name + " = NULL", func(r drow) (drow, error) {
			if !nullable {
				return nil, fmt.Errorf("NULL into NOT NULL column %s", name)
			}
			r[col] = types.NewNull(r[col].Kind)
			return r, nil
		}}
	case 9:
		return dset{"m = 'v', n = 7", ok(func(r drow) { r[fM], r[fN] = types.NewString("v"), types.NewInt64(7) })}
	case 10:
		return dset{"g = g + 2147483647", func(r drow) (drow, error) {
			if r[fG].I64 > 0 {
				return nil, fmt.Errorf("INTEGER overflow")
			}
			r[fG] = types.NewInt32(2147483647)
			return r, nil
		}}
	case 11:
		return dset{"n = n / g", func(r drow) (drow, error) {
			if r[fN].Null {
				return r, nil // NULL / g is NULL, 0 included
			}
			var err error
			r[fN], err = div(r, r[fN].I64)
			return r, err
		}}
	case 12:
		return dset{"n = CASE WHEN g = 0 THEN NULL ELSE id / g END", func(r drow) (drow, error) {
			if r[fG].I64 != 0 {
				r[fN], _ = div(r, r[fID].I64)
				return r, nil
			}
			if !nullable {
				return nil, fmt.Errorf("NULL into NOT NULL column n")
			}
			r[fN] = types.NewNull(types.KindInt64)
			return r, nil
		}}
	case 13:
		return dset{"n = COALESCE(n, id / g)", func(r drow) (drow, error) {
			if !r[fN].Null {
				return r, nil
			}
			var err error
			r[fN], err = div(r, r[fID].I64)
			return r, err
		}}
	}
	return dset{"b = TRUE", ok(func(r drow) { r[fB] = types.NewBool(true) })}
}

// genStmt makes statement i of a stream of n. The filtered predicate kinds
// cycle, so every stream sees all of them; it starts with a string
// comparison, so a stream from a delta-free state finds its first rows
// through a scan that filters on dictionary codes. Unfiltered statements
// come at the end — a DELETE at most next to last, the UPDATE of every row
// last — because whatever ran after them would pay for a delta per row.
func genStmt(rng *rand.Rand, m *dmlModel, nullable bool, i, n int) dmlStmt {
	kind, del := (i+dmlPredKinds-2)%(dmlPredKinds-1), rng.Intn(3) == 0
	switch i {
	case n - 2:
		kind = rng.Intn(dmlPredKinds)
	case n - 1:
		kind, del = dmlPredKinds-1, false
	}
	p := genPred(rng, m, kind)
	where := ""
	if p.sql != "" {
		where = " WHERE " + p.sql
	}
	if del {
		return dmlStmt{sql: "DELETE FROM f" + where, match: p.fn}
	}
	s := genSet(rng, nullable)
	return dmlStmt{sql: "UPDATE f SET " + s.sql + where, match: p.fn, set: s.fn}
}

// --- table set-up ---

const dmlRows = colstore.BlockRows + 611 // two row groups

func dmlFactRow(rng *rand.Rand, id int64, nullable bool) drow {
	r := diffFactRow(rng, id)
	if !nullable {
		if r[fN].Null {
			r[fN] = types.NewInt64(id % 2000)
		}
		if r[fM].Null {
			r[fM] = types.NewString("m0")
		}
	}
	return r
}

// loadDML creates f with the given structure and fills it with dmlRows seeded
// rows: through the block appender in id order, or — clustered — through COPY
// … ORDER BY id from a shuffled CSV file. Either way the image is in id order.
func loadDML(t *testing.T, db *DB, nullable, clustered bool, structure string) *dmlModel {
	t.Helper()
	ddl := diffDDL
	if !nullable {
		ddl = strings.Replace(ddl, "n BIGINT, m VARCHAR)", "n BIGINT NOT NULL, m VARCHAR NOT NULL)", 1)
	}
	mustExec(t, db, `CREATE TABLE f `+ddl+structure)
	rng := rand.New(rand.NewSource(7))
	m := &dmlModel{}
	for id := int64(0); id < dmlRows; id++ {
		m.rows = append(m.rows, mrow{v: dmlFactRow(rng, id, nullable)})
	}
	if !clustered {
		err := db.LoadBatchFunc("f", func(emit func([]types.Value) error) error {
			for _, r := range m.rows {
				if err := emit(r.v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	path := filepath.Join(t.TempDir(), "f.csv")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := csv.NewWriter(file)
	for _, i := range rng.Perm(len(m.rows)) {
		rec := make([]string, len(m.rows[i].v))
		for c, v := range m.rows[i].v {
			if !v.Null {
				rec[c] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, fmt.Sprintf(`COPY f FROM '%s' ORDER BY id`, path))
	return m
}

// rawOp is a delta put in place below the SQL layer — straight through the
// transaction API — so the states a stream starts from do not depend on the
// statements under test.
type rawOp struct {
	kind byte // 'i' insert before pos, 'd' delete pos, 'm' modify pos
	pos  int
	row  drow        // 'i'
	col  int         // 'm'
	val  types.Value // 'm'
}

// applyRaw commits ops (positions as of before the call, applied from the
// highest down so they stay valid) to the store and to the model.
func applyRaw(t *testing.T, db *DB, m *dmlModel, ops []rawOp) {
	t.Helper()
	store, err := db.Store("f")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := db.entry("f")
	cm := rewriter.PhysicalColMap(e.meta.Schema)
	for i := 1; i < len(ops); i++ {
		if ops[i].pos > ops[i-1].pos {
			t.Fatalf("raw ops must come highest position first")
		}
	}
	tx := store.Begin()
	check := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 'i':
			check(tx.InsertRowAt(int64(op.pos), physical.DecomposeRow(e.meta.Schema, op.row)))
			m.rows = append(m.rows[:op.pos:op.pos], append([]mrow{{v: op.row, ins: true}}, m.rows[op.pos:]...)...)
		case 'd':
			check(tx.DeleteAt(int64(op.pos)))
			if !m.rows[op.pos].ins {
				m.stableDel++
			}
			m.rows = append(m.rows[:op.pos:op.pos], m.rows[op.pos+1:]...)
		case 'm':
			val := op.val
			if val.Null {
				val = types.SafeValue(e.meta.Schema.Cols[op.col].Type.Kind)
			}
			check(tx.UpdateAt(int64(op.pos), cm.Val[op.col], val))
			if cm.Ind[op.col] >= 0 {
				check(tx.UpdateAt(int64(op.pos), cm.Ind[op.col], types.NewBool(op.val.Null)))
			}
			m.rows[op.pos].v = append(drow(nil), m.rows[op.pos].v...)
			m.rows[op.pos].v[op.col] = op.val
			m.rows[op.pos].mod = !m.rows[op.pos].ins
		}
	}
	check(tx.Commit())
}

// dmlStates are the delta states a stream starts from. Positions cluster
// around the start, the row-group boundary and the end of the table.
var dmlStates = []struct {
	name  string
	setup func(t *testing.T, db *DB, m *dmlModel, nullable bool)
}{
	{"delta-free", func(*testing.T, *DB, *dmlModel, bool) {}},
	{"pending inserts at the tail", func(t *testing.T, db *DB, m *dmlModel, nullable bool) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5; i++ { // each appended at the then-end of the image
			applyRaw(t, db, m, []rawOp{{kind: 'i', pos: len(m.rows), row: dmlFactRow(rng, 200000+int64(i), nullable)}})
		}
	}},
	{"pending deletes only", func(t *testing.T, db *DB, m *dmlModel, _ bool) {
		// No modify and no insert anywhere: the merger narrows selection
		// vectors and never copies.
		var ops []rawOp
		for _, p := range []int{dmlRows - 1, dmlRows - 300, colstore.BlockRows + 1, colstore.BlockRows,
			colstore.BlockRows - 1, colstore.BlockRows - 2, 9000, 5001, 5000, 4999, 12, 3, 2, 0} {
			ops = append(ops, rawOp{kind: 'd', pos: p})
		}
		applyRaw(t, db, m, ops)
	}},
	{"pending modifies", func(t *testing.T, db *DB, m *dmlModel, nullable bool) {
		// Copy-on-write path; columns the statements read (x, n, g) and
		// columns they mostly prune (s, d).
		null := types.NewNull(types.KindInt64)
		if !nullable {
			null = types.NewInt64(-1)
		}
		var ops []rawOp
		for i, p := range []int{dmlRows - 2, colstore.BlockRows + 7, colstore.BlockRows, colstore.BlockRows - 1,
			8000, 4100, 4099, 700, 1, 0} {
			switch i % 4 {
			case 0:
				ops = append(ops, rawOp{kind: 'm', pos: p, col: fX, val: types.NewFloat64(77.5)})
			case 1:
				ops = append(ops, rawOp{kind: 'm', pos: p, col: fN, val: null})
			case 2:
				ops = append(ops, rawOp{kind: 'm', pos: p, col: fS, val: types.NewString("raw")})
			case 3:
				ops = append(ops, rawOp{kind: 'm', pos: p, col: fG, val: types.NewInt32(7)})
			}
		}
		applyRaw(t, db, m, ops)
	}},
	{"inserts spliced mid-table and at the tail", func(t *testing.T, db *DB, m *dmlModel, nullable bool) {
		rng := rand.New(rand.NewSource(13))
		var ops []rawOp
		for i, p := range []int{dmlRows, dmlRows, dmlRows - 50, colstore.BlockRows + 1, colstore.BlockRows,
			colstore.BlockRows, colstore.BlockRows - 1, 6000, 6000, 1025, 1024, 3, 0, 0} {
			ops = append(ops, rawOp{kind: 'i', pos: p, row: dmlFactRow(rng, 300000+int64(i), nullable)})
		}
		applyRaw(t, db, m, ops)
	}},
	{"after CHECKPOINT", func(t *testing.T, db *DB, m *dmlModel, nullable bool) {
		rng := rand.New(rand.NewSource(17))
		applyRaw(t, db, m, []rawOp{
			{kind: 'i', pos: dmlRows, row: dmlFactRow(rng, 400000, nullable)},
			{kind: 'd', pos: colstore.BlockRows + 5},
			{kind: 'i', pos: colstore.BlockRows, row: dmlFactRow(rng, 400001, nullable)},
			{kind: 'm', pos: 900, col: fX, val: types.NewFloat64(3.25)},
			{kind: 'd', pos: 10},
		})
		mustExec(t, db, `CHECKPOINT f`)
		m.checkpoint()
	}},
}

// checkAgainstModel compares the engine's whole image, in order, and its
// pending-delta count with the model's. A heap table has no deltas, and an
// UPDATE may move its rows, so it is compared in id order (the model's, since
// heap streams insert nothing).
func checkAgainstModel(t *testing.T, db *DB, m *dmlModel, after string) {
	t.Helper()
	e, err := db.entry("f")
	if err != nil {
		t.Fatal(err)
	}
	if e.heap != nil {
		checkRows(t, mustExec(t, db, `SELECT * FROM f ORDER BY id`).Rows, m, after)
		return
	}
	checkRows(t, mustExec(t, db, `SELECT * FROM f`).Rows, m, after)
	if got, want := e.store.PendingOps(), m.pending(); got != want {
		t.Fatalf("after %s: %d pending deltas, model %d", after, got, want)
	}
}

func checkRows(t *testing.T, got []drow, m *dmlModel, after string) {
	t.Helper()
	if len(got) != len(m.rows) {
		t.Fatalf("after %s: image has %d rows, model %d", after, len(got), len(m.rows))
	}
	for i, r := range m.rows {
		if !sameRow(got[i], r.v) {
			t.Fatalf("after %s: image row %d is %s, model has %s", after, i, render(got[i]), render(r.v))
		}
	}
}

// runStream runs n generated statements at the given vector size, checking
// after each one. The check itself scans at the default vector size.
func runStream(t *testing.T, db *DB, m *dmlModel, rng *rand.Rand, nullable bool, vecSize, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		s := genStmt(rng, m, nullable, i, n)
		want, wantErr := m.apply(s)
		db.VectorSize = vecSize
		res, err := db.Exec(ctx, s.sql)
		db.VectorSize = 0
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%s: succeeded, model expects an error (%v)", s.sql, wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("%s: %v", s.sql, err)
		case err == nil && res.Affected != int64(want):
			t.Fatalf("%s: affected %d, model %d", s.sql, res.Affected, want)
		}
		checkAgainstModel(t, db, m, s.sql)
	}
}

func TestDMLAgreesWithModel(t *testing.T) {
	stmts := 10
	if testing.Short() {
		stmts = 6
	}
	for si, st := range dmlStates {
		for _, nullable := range []bool{true, false} {
			for _, clustered := range []bool{false, true} {
				for _, vecSize := range []int{3, 1024} {
					name := fmt.Sprintf("%s/nullable=%v/clustered=%v/vec=%d", st.name, nullable, clustered, vecSize)
					t.Run(name, func(t *testing.T) {
						t.Parallel() // every configuration has a database of its own
						db := Open()
						m := loadDML(t, db, nullable, clustered, "")
						st.setup(t, db, m, nullable)
						checkAgainstModel(t, db, m, "set-up")
						seed := int64(1000*si + vecSize)
						if nullable {
							seed += 100
						}
						if clustered {
							seed += 10
						}
						runStream(t, db, m, rand.New(rand.NewSource(seed)), nullable, vecSize, stmts)
					})
				}
			}
		}
	}
	// A heap table runs the same statements through the same plans; it has
	// no delta states (the set-ups write through the transaction API) and no
	// clustered load.
	for _, nullable := range []bool{true, false} {
		for _, vecSize := range []int{3, 1024} {
			t.Run(fmt.Sprintf("HEAP/nullable=%v/vec=%d", nullable, vecSize), func(t *testing.T) {
				t.Parallel()
				db := Open()
				m := loadDML(t, db, nullable, false, " WITH STRUCTURE=HEAP")
				checkAgainstModel(t, db, m, "set-up")
				seed := int64(7000 + vecSize)
				if nullable {
					seed += 100
				}
				runStream(t, db, m, rand.New(rand.NewSource(seed)), nullable, vecSize, stmts)
			})
		}
	}
}

// A crash after a vectorized DML stream: what the WAL replays into the PDT
// is what the statements put there, so the recovered table is the model.
func TestDMLStreamSurvivesCrash(t *testing.T) {
	fs := fsim.NewMemFS()
	db, _ := openMem(t, fs)
	m := loadDML(t, db, true, false, "")
	rng := rand.New(rand.NewSource(23))
	runStream(t, db, m, rng, true, 1024, 8)
	mustExec(t, db, `CHECKPOINT f`)
	m.checkpoint()
	runStream(t, db, m, rng, true, 3, 8)
	if m.pending() == 0 {
		t.Fatal("the stream left nothing in the WAL tail to recover")
	}

	fs.Crash()
	db2, info := openMem(t, fs)
	if len(info.Quarantined) != 0 {
		t.Fatalf("unexpected quarantine: %v", info.Quarantined)
	}
	if info.RecordsReplayed == 0 {
		t.Fatal("recovery replayed no WAL record")
	}
	checkAgainstModel(t, db2, m, "crash and recovery")
}
