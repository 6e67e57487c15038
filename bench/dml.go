package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"vectorwise/internal/datagen"
	"vectorwise/internal/engine"
	"vectorwise/internal/fsim"
	"vectorwise/internal/session"
	"vectorwise/internal/types"
)

// dml_write statement templates, indexed by sample.tmpl.
const (
	dmlInsert = iota
	dmlUpdate
	dmlDelete
	dmlSelect
	dmlCheckpoint
)

var dmlTemplates = []string{"insert4", "update_key", "delete_key", "select_check", "checkpoint"}

const (
	dmlDir        = "db"
	insertsPerCyc = 8
	rowsPerInsert = 4
	updatesPerCyc = 2
	deletesPerCyc = 2
)

// dmlInstance is one set-up of dml_write: a durable engine in this process on
// an in-memory file system (fsync is free, so the run does not depend on the
// device), with the benchmark's own model of lineitem beside it.
type dmlInstance struct {
	localHost
	mem    *fsim.MemFS
	fs     *countFS
	db     *engine.DB
	pool   *session.Pool
	sess   *session.Session
	cycles int
	rng    *rand.Rand

	model   []liRow // what lineitem must contain
	sumQty  int64
	nextKey int64

	userChanged  int64 // CSV bytes of rows inserted, updated or deleted so far
	pendingAtCkp int   // PDT ops pending just before the last checkpoint
	recoverMS    float64
	recovered    int
	rp           *replayer
	nstmt        int
}

func (in *dmlInstance) templates() []string { return dmlTemplates }

func (in *dmlInstance) close() {
	in.sess.Close()
	in.pool.Close()
	in.db.Close()
}

func setupDMLWrite(sc scale, seed int64) (instance, error) {
	in := &dmlInstance{mem: fsim.NewMemFS(), cycles: sc.dmlCycles,
		rng: rand.New(rand.NewSource(seed ^ 0xd31))}
	in.fs = &countFS{FS: in.mem}
	if err := in.open(); err != nil {
		return nil, err
	}
	if _, err := in.db.Exec(context.Background(), datagen.LineitemDDL); err != nil {
		return nil, err
	}
	data := &dataset{seed: seed}
	if err := data.load(in.db, groupsRows(sc.dmlGroups), "lineitem"); err != nil {
		return nil, err
	}
	in.model = data.li
	for i := range in.model {
		in.sumQty += int64(in.model[i].quantity)
		in.nextKey = max(in.nextKey, in.model[i].orderkey)
	}
	in.nextKey++
	return in, nil
}

// open (re)opens the database over the instance's file system.
func (in *dmlInstance) open() error {
	db, info, err := engine.OpenDirFS(in.fs, dmlDir)
	if err != nil {
		return err
	}
	in.db, in.recovered = db, info.RecordsReplayed
	in.pool = session.NewPool(db, session.Config{})
	in.sess, err = in.pool.Open()
	return err
}

func (in *dmlInstance) counters() (map[string]float64, error) {
	out, _ := in.localHost.counters()
	out["bench_fs_bytes_written"] = float64(in.fs.bytesWritten.Load())
	out["bench_fs_syncs"] = float64(in.fs.syncs.Load())
	out["bench_user_bytes_changed"] = float64(in.userChanged)
	return out, nil
}

func (in *dmlInstance) storedAndUserBytes() (int64, int64, error) {
	names, err := in.mem.List(dmlDir)
	if err != nil {
		return 0, 0, err
	}
	var stored int64
	for _, n := range names {
		f, err := in.mem.Open(dmlDir + "/" + n)
		if err != nil {
			return 0, 0, err
		}
		sz, err := f.Size()
		f.Close()
		if err != nil {
			return 0, 0, err
		}
		stored += sz
	}
	return stored, csvSize(len(in.model), func(i int) []types.Value { return in.model[i].values() }), nil
}

// exec runs one statement through the session, timing it and, when traced,
// recording client.stmt ⊃ session.exec ⊃ fsim.io (the time the engine spent
// inside the file system's Write and Sync, as the counting wrapper saw it).
func (in *dmlInstance) exec(tr *tracer, text string) (*engine.Result, time.Duration, error) {
	ctx := context.Background()
	if tr == nil {
		t := time.Now()
		res, err := in.sess.Exec(ctx, text)
		return res, time.Since(t), err
	}
	in.nstmt++
	io0 := in.fs.ioNanos.Load()
	c := tr.begin("client.stmt", -1, in.nstmt)
	s := tr.begin("session.exec", c, in.nstmt)
	res, err := in.sess.Exec(ctx, text)
	tr.end(s)
	lat := tr.end(c)
	tr.derived("fsim.io", s, in.nstmt, time.Duration(in.fs.ioNanos.Load()-io0))
	return res, lat, err
}

// replay re-runs what can be re-run of a DML statement without changing the
// table: its parse and, for statements that search the table, the full scan
// the engine's row matcher reads.
func (in *dmlInstance) replay(tr *tracer, text string, scans bool) error {
	if tr == nil {
		return nil
	}
	if in.rp == nil || in.rp.db != in.db {
		in.rp = newReplayer(in.db)
	}
	root := tr.begin("bench.replay", -1, in.nstmt)
	defer tr.end(root)
	in.rp.parse(tr, root, in.nstmt, text)
	if !scans {
		return nil
	}
	st, err := in.db.Store("lineitem")
	if err != nil {
		return err
	}
	return in.rp.scans(tr, root, in.nstmt, []scanSpec{{table: "lineitem", cols: allCols(st.Stable())}})
}

func affectedErr(what string, res *engine.Result, want int) error {
	if res.Affected != int64(want) {
		return fmt.Errorf("%s affected %d rows, model says %d", what, res.Affected, want)
	}
	return nil
}

// round runs the cycles of one round and then checkpoints, so every round
// builds up the same amount of deltas.
func (in *dmlInstance) round(tr *tracer) (roundOut, error) {
	var out roundOut
	for c := 0; c < in.cycles; c++ {
		if err := in.cycle(tr, &out); err != nil {
			return out, err
		}
	}
	if st, err := in.db.Store("lineitem"); err == nil {
		in.pendingAtCkp = st.PendingOps()
	}
	const ckp = "CHECKPOINT lineitem"
	_, lat, err := in.exec(tr, ckp)
	out.add(dmlCheckpoint, lat, err)
	return out, in.replay(tr, ckp, false)
}

// cycle is 8 four-row INSERTs, 2 UPDATEs and 2 DELETEs by order key, and one
// SELECT of the table's totals. Every statement is checked against the
// model, which is then updated.
func (in *dmlInstance) cycle(tr *tracer, out *roundOut) error {
	for i := 0; i < insertsPerCyc; i++ {
		rows := make([]liRow, rowsPerInsert)
		for j := range rows {
			rows[j] = randomLineitem(in.rng, in.nextKey)
		}
		in.nextKey++
		text := insertSQL(rows)
		res, lat, err := in.exec(tr, text)
		if err == nil {
			err = affectedErr("insert", res, len(rows))
			in.model = append(in.model, rows...)
			for j := range rows {
				in.sumQty += int64(rows[j].quantity)
			}
			in.noteChanged(rows)
		}
		out.add(dmlInsert, lat, err)
		if err := in.replay(tr, text, false); err != nil {
			return err
		}
	}
	for i := 0; i < updatesPerCyc; i++ {
		key := in.model[in.rng.Intn(len(in.model))].orderkey
		text := fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d", key)
		res, lat, err := in.exec(tr, text)
		if err == nil {
			var hit []liRow
			for j := range in.model {
				if in.model[j].orderkey == key {
					in.model[j].quantity++
					in.sumQty++
					hit = append(hit, in.model[j])
				}
			}
			err = affectedErr("update", res, len(hit))
			in.noteChanged(hit)
		}
		out.add(dmlUpdate, lat, err)
		if err := in.replay(tr, text, true); err != nil {
			return err
		}
	}
	for i := 0; i < deletesPerCyc; i++ {
		key := in.model[in.rng.Intn(len(in.model))].orderkey
		text := fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", key)
		res, lat, err := in.exec(tr, text)
		if err == nil {
			var hit []liRow
			kept := in.model[:0]
			for j := range in.model {
				if in.model[j].orderkey == key {
					in.sumQty -= int64(in.model[j].quantity)
					hit = append(hit, in.model[j])
				} else {
					kept = append(kept, in.model[j])
				}
			}
			in.model = kept
			err = affectedErr("delete", res, len(hit))
			in.noteChanged(hit)
		}
		out.add(dmlDelete, lat, err)
		if err := in.replay(tr, text, true); err != nil {
			return err
		}
	}
	res, lat, err := in.exec(tr, totalsSQL)
	if err == nil {
		err = in.checkTotals(res)
	}
	out.add(dmlSelect, lat, err)
	return in.replay(tr, totalsSQL, true)
}

const totalsSQL = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem"

func (in *dmlInstance) noteChanged(rows []liRow) {
	in.userChanged += csvSize(len(rows), func(i int) []types.Value { return rows[i].values() })
}

func (in *dmlInstance) checkTotals(res *engine.Result) error {
	want := [][]types.Value{{int64Val(int64(len(in.model))), int64Val(in.sumQty)}}
	return checkRows(res.Rows, want, true)
}

// finish commits one more cycle of writes past the last checkpoint, crashes
// the file system (everything not fsynced is gone), reopens, and requires
// every acknowledged row to be there.
func (in *dmlInstance) finish() (attempted, failed int, err error) {
	var out roundOut
	if err := in.cycle(nil, &out); err != nil {
		return 0, 0, err
	}
	attempted, failed = len(out.samples)+1, out.failed
	in.sess.Close()
	in.pool.Close()
	in.mem.Crash()
	t := time.Now()
	if err := in.open(); err != nil {
		return attempted, failed + 1, fmt.Errorf("reopen after crash: %w", err)
	}
	in.recoverMS = float64(time.Since(t)) / 1e6
	res, err := in.sess.Exec(context.Background(), totalsSQL)
	if err == nil {
		err = in.checkTotals(res)
	}
	if err != nil {
		return attempted, failed + 1, fmt.Errorf("after crash and recovery: %w", err)
	}
	return attempted, failed, nil
}
