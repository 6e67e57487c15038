package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"vectorwise/internal/datagen"
	"vectorwise/internal/engine"
	"vectorwise/internal/session"
	"vectorwise/internal/types"
)

// readStmt is one entry of a read workload's fixed statement list.
type readStmt struct {
	tmpl  int
	want  [][]types.Value
	first string // rendering of the first result; every repeat must equal it
}

// readInstance is one set-up of scan_decode, join_agg_sort or delta_read: an
// in-memory engine in this process, one session, a fixed list of SELECTs.
type readInstance struct {
	localHost
	db    *engine.DB
	pool  *session.Pool
	sess  *session.Session
	data  *dataset
	tmpls []template
	stmts []readStmt
	rp    *replayer
	nstmt int // statements traced so far (span statement ids)
}

func (in *readInstance) templates() []string {
	out := make([]string, len(in.tmpls))
	for i, t := range in.tmpls {
		out[i] = t.name
	}
	return out
}

func (in *readInstance) close() {
	in.sess.Close()
	in.pool.Close()
}

func (in *readInstance) finish() (int, int, error) { return 0, 0, nil }

func (in *readInstance) storedAndUserBytes() (int64, int64, error) {
	var stored int64
	for _, t := range []string{"lineitem", "orders", "customer"} {
		if st, err := in.db.Store(t); err == nil {
			stored += st.Stable().CompressedBytes()
		}
	}
	return stored, in.data.csvBytes(), nil
}

func (in *readInstance) round(tr *tracer) (roundOut, error) {
	var out roundOut
	ctx := context.Background()
	for i := range in.stmts {
		st := &in.stmts[i]
		text := in.tmpls[st.tmpl].sql
		var res *engine.Result
		var err error
		var lat time.Duration
		if tr == nil {
			t := time.Now()
			res, err = in.sess.Exec(ctx, text)
			lat = time.Since(t)
		} else {
			in.nstmt++
			c := tr.begin("client.stmt", -1, in.nstmt)
			s := tr.begin("session.exec", c, in.nstmt)
			res, err = in.sess.Exec(ctx, text)
			tr.end(s)
			lat = tr.end(c)
		}
		if err == nil {
			err = in.check(st, res)
		}
		out.add(st.tmpl, lat, err)
		if tr != nil && err == nil {
			if in.rp == nil {
				in.rp = newReplayer(in.db)
			}
			if err := in.rp.statement(tr, in.nstmt, text); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// check holds a result against the oracle and against the first result the
// same statement gave.
func (in *readInstance) check(st *readStmt, res *engine.Result) error {
	t := &in.tmpls[st.tmpl]
	if err := checkRows(res.Rows, st.want, t.ordered); err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	text := engine.FormatResult(res)
	if st.first == "" {
		st.first = text
	} else if text != st.first {
		return fmt.Errorf("%s: result differs from its first run", t.name)
	}
	return nil
}

func openLocal(bufferGroups int, ddl ...string) (*engine.DB, error) {
	db := engine.Open()
	db.BufferGroups = bufferGroups
	for _, d := range ddl {
		if _, err := db.Exec(context.Background(), d); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// newReadInstance wires a loaded database to a session and expands the
// templates into the round's statement list: every template reps times,
// round-robin.
func newReadInstance(db *engine.DB, data *dataset, tmpls []template, reps int) (*readInstance, error) {
	in := &readInstance{db: db, data: data, tmpls: tmpls}
	in.pool = session.NewPool(db, session.Config{})
	var err error
	if in.sess, err = in.pool.Open(); err != nil {
		return nil, err
	}
	want := make([][][]types.Value, len(tmpls))
	for i := range tmpls {
		want[i] = tmpls[i].oracle(data)
	}
	for r := 0; r < reps; r++ {
		for i := range tmpls {
			in.stmts = append(in.stmts, readStmt{tmpl: i, want: want[i]})
		}
	}
	return in, nil
}

// setupScanDecode: lineitem three times the size of the buffer pool, so
// every row group of every scan is a pool miss.
func setupScanDecode(sc scale, seed int64) (instance, error) {
	db, err := openLocal(sc.scanPool, datagen.LineitemDDL)
	if err != nil {
		return nil, err
	}
	data := &dataset{seed: seed}
	if err := data.load(db, groupsRows(sc.scanGroups), "lineitem"); err != nil {
		return nil, err
	}
	return newReadInstance(db, data, scanTemplates, sc.scanReps)
}

// setupJoinAggSort: everything fits the default pool, which the warm-up
// round fills.
func setupJoinAggSort(sc scale, seed int64) (instance, error) {
	db, err := openLocal(0, datagen.LineitemDDL, datagen.OrdersDDL, datagen.CustomerDDL)
	if err != nil {
		return nil, err
	}
	data := &dataset{seed: seed}
	if err := data.load(db, groupsRows(sc.joinGroups), "lineitem", "orders", "customer"); err != nil {
		return nil, err
	}
	return newReadInstance(db, data, joinTemplates, sc.joinReps)
}

// deltaShare is the fraction of lineitem rows delta_read touches with
// pending, never checkpointed deltas: a third inserts, a third modifies, a
// third deletes.
const deltaShare = 0.01

// setupDeltaRead loads lineitem and leaves a seeded delta set pending:
// inserts through multi-row INSERT statements, modifies and deletes through
// the transaction API so set-up stays short.
func setupDeltaRead(sc scale, seed int64) (instance, error) {
	db, err := openLocal(0, datagen.LineitemDDL)
	if err != nil {
		return nil, err
	}
	data := &dataset{seed: seed}
	rows := groupsRows(sc.deltaGroups)
	if err := data.load(db, rows, "lineitem"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	each := int(float64(rows) * deltaShare / 3)
	ctx := context.Background()
	var inserted []liRow
	for len(inserted) < each {
		n := min(64, each-len(inserted))
		batch := make([]liRow, n)
		for i := range batch {
			batch[i] = randomLineitem(rng, int64(rows)+int64(len(inserted)+i))
		}
		if _, err := db.Exec(ctx, insertSQL(batch)); err != nil {
			return nil, fmt.Errorf("delta insert: %w", err)
		}
		inserted = append(inserted, batch...)
	}
	// Modifies and deletes hit distinct stable positions below the inserts;
	// deleting from the highest position down keeps the rest valid.
	perm := rng.Perm(rows)
	mods, dels := perm[:each], append([]int(nil), perm[each:2*each]...)
	sort.Sort(sort.Reverse(sort.IntSlice(dels)))
	store, err := db.Store("lineitem")
	if err != nil {
		return nil, err
	}
	tx := store.Begin()
	const quantityCol = 2 // value columns keep their logical position in storage
	for _, p := range mods {
		q := data.li[p].quantity%50 + 1
		if err := tx.UpdateAt(int64(p), quantityCol, types.NewInt32(q)); err != nil {
			tx.Abort()
			return nil, err
		}
		data.li[p].quantity = q
	}
	gone := make(map[int]bool, len(dels))
	for _, p := range dels {
		if err := tx.DeleteAt(int64(p)); err != nil {
			tx.Abort()
			return nil, err
		}
		gone[p] = true
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	kept := data.li[:0]
	for i := range data.li {
		if !gone[i] {
			kept = append(kept, data.li[i])
		}
	}
	data.li = append(kept, inserted...)
	return newReadInstance(db, data, append(append([]template(nil), scanTemplates...), deltaExtra), sc.deltaReps)
}

// randomLineitem makes a row like datagen's, from the benchmark's own rng.
func randomLineitem(rng *rand.Rand, orderkey int64) liRow {
	qty := int32(rng.Intn(50) + 1)
	r := liRow{
		orderkey: orderkey, partkey: int64(rng.Intn(200000)) + 1, quantity: qty,
		price:    float64(rng.Intn(90000)+10000) / 100 * float64(qty),
		discount: float64(rng.Intn(11)) / 100, tax: float64(rng.Intn(9)) / 100,
		flag:     datagen.ReturnFlags[rng.Intn(len(datagen.ReturnFlags))],
		status:   datagen.LineStatuses[rng.Intn(len(datagen.LineStatuses))],
		shipdate: types.DateFromYMD(1992, 1, 1) + int32(rng.Intn(2557)),
		mode:     datagen.ShipModes[rng.Intn(len(datagen.ShipModes))],
	}
	if rng.Intn(10) == 0 {
		r.commentNull = true
	} else {
		r.comment = fmt.Sprintf("comment line %d", rng.Intn(1000))
	}
	return r
}

func sqlFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// insertSQL renders a multi-row INSERT INTO lineitem.
func insertSQL(rows []liRow) string {
	var b strings.Builder
	b.WriteString("INSERT INTO lineitem VALUES ")
	for i := range rows {
		r := &rows[i]
		if i > 0 {
			b.WriteString(", ")
		}
		comment := "NULL"
		if !r.commentNull {
			comment = "'" + r.comment + "'"
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %s, %s, %s, '%s', '%s', DATE '%s', '%s', %s)",
			r.orderkey, r.partkey, r.quantity, sqlFloat(r.price), sqlFloat(r.discount), sqlFloat(r.tax),
			r.flag, r.status, types.FormatDate(r.shipdate), r.mode, comment)
	}
	return b.String()
}
