package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vectorwise/internal/datagen"
	"vectorwise/internal/engine"
	"vectorwise/internal/sql"
	"vectorwise/internal/types"
	"vectorwise/internal/wire"
)

// buildServer compiles the real vwserver binary into dir. It runs before any
// clock starts; the module cache makes repeats cheap.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "vwserver")
	cmd := exec.Command("go", "build", "-o", bin, "vectorwise/cmd/vwserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build vwserver: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is a running vwserver child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string // its -data-dir and CSV scratch, removed on stop
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startServer(bin, tmp string) (*serverProc, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "wire-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", addr, "-data-dir", filepath.Join(dir, "data"))
	cmd.Stderr = nil // the server logs its recovery summary; not the benchmark's output
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sp := &serverProc{cmd: cmd, addr: addr, dir: dir}
	for i := 0; ; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return sp, nil
		}
		if i > 500 {
			sp.stop()
			return nil, fmt.Errorf("vwserver did not start listening on %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop terminates the server, waits for it, and removes its directory.
func (sp *serverProc) stop() {
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = sp.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(sp.dir)
}

// countConn counts the bytes crossing a connection.
type countConn struct {
	net.Conn
	sent, received int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent += int64(n)
	return n, err
}

// wireConn is one client connection speaking the vwserver line protocol.
type wireConn struct {
	conn *countConn
	r    *bufio.Reader
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: c}
	return &wireConn{conn: cc, r: bufio.NewReaderSize(cc, 64<<10)}, nil
}

// serverError is a statement the server answered with !err: the statement
// failed, the connection is fine.
type serverError string

func (e serverError) Error() string { return "server: " + string(e) }

// exec sends one statement and waits for its response.
func (w *wireConn) exec(text string) (string, error) {
	if _, err := w.conn.Write([]byte(text + ";\n")); err != nil {
		return "", err
	}
	body, serverErr, err := wire.ReadResponse(w.r)
	if err != nil {
		return "", err
	}
	if serverErr != "" {
		return "", serverError(serverErr)
	}
	return body, nil
}

func (w *wireConn) close() { w.conn.Close() }

// wire_short statement templates, indexed by sample.tmpl.
const (
	wirePoint = iota
	wireRangeAgg
	wireRangeRows
	wireCustGroup
	wireExplain
)

var wireTemplates = []string{"point_orders", "range_agg", "range_rows", "cust_group", "explain_join3"}

const explainJoin3 = `EXPLAIN SELECT c_mktsegment, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment`

// wireStmt is one entry of a connection's fixed statement list.
type wireStmt struct {
	tmpl    int
	text    string
	want    [][]types.Value // nil for EXPLAIN: only repeat-identity is checked
	ordered bool
	first   string
}

// wireInstance is one set-up of wire_short: a vwserver child loaded over the
// wire, and the fixed statement list of its one measured connection.
type wireInstance struct {
	srv       *serverProc
	ctl       *wireConn  // set-up, counters
	conn      *wireConn  // the one measured connection
	list      []wireStmt // its fixed statement list
	data      *dataset
	userBytes int64
	copyRows  int
	copySecs  float64
	nstmt     int
	twin      *engine.DB // empty in-process copy of the schema, for compile-time replays
}

func (in *wireInstance) templates() []string { return wireTemplates }

// close also cleans up a half-built instance.
func (in *wireInstance) close() {
	if in.conn != nil {
		in.conn.close()
	}
	if in.ctl != nil {
		in.ctl.close()
	}
	in.srv.stop()
}

func (in *wireInstance) engineCPU() (time.Duration, error) { return procCPU(in.srv.cmd.Process.Pid) }

func (in *wireInstance) enginePID() string { return strconv.Itoa(in.srv.cmd.Process.Pid) }

func (in *wireInstance) finish() (int, int, error) { return 0, 0, nil }

// counters reads the server's registry through SHOW METRICS, plus the
// clients' byte counts.
func (in *wireInstance) counters() (map[string]float64, error) {
	body, err := in.ctl.exec("SHOW METRICS")
	if err != nil {
		return nil, err
	}
	rows, err := parseBody(body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range rows {
		if len(r) == 3 && r[1] == "counter" {
			out[r[0]], _ = strconv.ParseFloat(r[2], 64)
		}
	}
	out["bench_wire_bytes"] = float64(in.conn.conn.sent + in.conn.conn.received)
	return out, nil
}

// storedAndUserBytes sums the checkpoint files in the server's data
// directory against the CSV files it was loaded from.
func (in *wireInstance) storedAndUserBytes() (int64, int64, error) {
	files, err := filepath.Glob(filepath.Join(in.srv.dir, "data", "*.vwt"))
	if err != nil {
		return 0, 0, err
	}
	var stored int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, 0, err
		}
		stored += st.Size()
	}
	return stored, in.userBytes, nil
}

// setupWireShort starts the server, loads the three tables with clustered
// COPY, opens the client connection and builds its statement list.
func setupWireShort(sc scale, seed int64, serverBin, tmp string) (instance, error) {
	srv, err := startServer(serverBin, tmp)
	if err != nil {
		return nil, err
	}
	in := &wireInstance{srv: srv, data: &dataset{seed: seed}}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	if in.ctl, err = dialWire(srv.addr); err != nil {
		return nil, err
	}
	d := in.data
	for _, t := range []string{"lineitem", "orders", "customer"} {
		if err := d.gen(t, groupsRows(sc.wireGroups), nil); err != nil {
			return nil, err
		}
	}
	loads := []struct {
		table, ddl, order string
		n                 int
		row               func(i int) []types.Value
	}{
		{"lineitem", datagen.LineitemDDL, "l_shipdate", len(d.li), func(i int) []types.Value { return d.li[i].values() }},
		{"orders", datagen.OrdersDDL, "o_orderkey", len(d.ord), func(i int) []types.Value { return d.ord[i].values() }},
		{"customer", datagen.CustomerDDL, "c_custkey", len(d.cust), func(i int) []types.Value { return d.cust[i].values() }},
	}
	for _, l := range loads {
		path := filepath.Join(srv.dir, l.table+".csv")
		n, err := writeCSV(path, l.n, l.row)
		if err != nil {
			return nil, err
		}
		in.userBytes += n
		if _, err := in.ctl.exec(l.ddl); err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := in.ctl.exec(fmt.Sprintf("COPY %s FROM '%s' ORDER BY %s", l.table, path, l.order)); err != nil {
			return nil, fmt.Errorf("COPY %s: %w", l.table, err)
		}
		in.copySecs += time.Since(t).Seconds()
		in.copyRows += l.n
	}
	if in.twin, err = openLocal(0, datagen.LineitemDDL, datagen.OrdersDDL, datagen.CustomerDDL); err != nil {
		return nil, err
	}
	if in.conn, err = dialWire(srv.addr); err != nil {
		return nil, err
	}
	in.list = in.statements(rand.New(rand.NewSource(seed*31)), sc.wireStmts)
	ok = true
	return in, nil
}

// statements draws n short read-only statements, templates in equal shares,
// keys and ranges from rng, each with the oracle's expected rows.
func (in *wireInstance) statements(rng *rand.Rand, n int) []wireStmt {
	d := in.data
	epoch := types.DateFromYMD(1992, 1, 1)
	// Row indexes by ship date, so a range's rows are a slice.
	byDate := make([]int, len(d.li))
	for i := range byDate {
		byDate[i] = i
	}
	sort.Slice(byDate, func(a, b int) bool { return d.li[byDate[a]].shipdate < d.li[byDate[b]].shipdate })
	rangeRows := func(lo, hi int32) []int {
		a := sort.Search(len(byDate), func(i int) bool { return d.li[byDate[i]].shipdate >= lo })
		b := sort.Search(len(byDate), func(i int) bool { return d.li[byDate[i]].shipdate > hi })
		return byDate[a:b]
	}
	out := make([]wireStmt, 0, n)
	for i := 0; i < n; i++ {
		st := wireStmt{tmpl: i % len(wireTemplates)}
		switch st.tmpl {
		case wirePoint:
			o := d.ord[rng.Intn(len(d.ord))]
			st.text = fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority FROM orders WHERE o_orderkey = %d", o.key)
			st.want = [][]types.Value{o.values()}
		case wireRangeAgg, wireRangeRows:
			lo := epoch + int32(rng.Intn(2557-3))
			hi := lo + 2
			where := fmt.Sprintf("WHERE l_shipdate BETWEEN DATE '%s' AND DATE '%s'", types.FormatDate(lo), types.FormatDate(hi))
			idx := rangeRows(lo, hi)
			if st.tmpl == wireRangeAgg {
				var qty int64
				for _, r := range idx {
					qty += int64(d.li[r].quantity)
				}
				st.text = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem " + where
				st.want = [][]types.Value{{int64Val(int64(len(idx))), int64Val(qty)}}
			} else {
				st.text = "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice FROM lineitem " + where
				st.want = [][]types.Value{}
				for _, r := range idx {
					li := &d.li[r]
					st.want = append(st.want, []types.Value{int64Val(li.orderkey), int64Val(li.partkey),
						types.NewInt32(li.quantity), float64Val(li.price)})
				}
			}
		case wireCustGroup:
			lo := int64(rng.Intn(max(1, len(d.cust)-1000))) + 1
			hi := lo + 999
			counts := map[string]int64{}
			for _, c := range d.cust {
				if c.key >= lo && c.key <= hi {
					counts[c.segment]++
				}
			}
			segs := make([]string, 0, len(counts))
			for s := range counts {
				segs = append(segs, s)
			}
			sort.Strings(segs)
			st.want = [][]types.Value{}
			for _, s := range segs {
				st.want = append(st.want, []types.Value{stringVal(s), int64Val(counts[s])})
			}
			st.ordered = true
			st.text = fmt.Sprintf("SELECT c_mktsegment, COUNT(*) FROM customer WHERE c_custkey BETWEEN %d AND %d GROUP BY c_mktsegment ORDER BY c_mktsegment", lo, hi)
		case wireExplain:
			st.text = explainJoin3
		}
		out = append(out, st)
	}
	return out
}

// check holds a response body against the oracle and against the first body
// the same statement returned.
func (st *wireStmt) check(body string) error {
	name := wireTemplates[st.tmpl]
	if st.want != nil {
		if err := checkBody(body, st.want, st.ordered); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	} else if !strings.Contains(body, "physical plan") {
		return fmt.Errorf("%s: no plan in response", name)
	}
	if st.first == "" {
		st.first = body
	} else if body != st.first {
		return fmt.Errorf("%s: result differs from its first run", name)
	}
	return nil
}

// round runs the statement list once over the one connection, a closed loop:
// the next statement is sent when the previous response has arrived, so
// client and server never compete for a core.
func (in *wireInstance) round(tr *tracer) (roundOut, error) {
	var out roundOut
	for i := range in.list {
		st := &in.list[i]
		var body string
		var err error
		var lat time.Duration
		if tr == nil {
			t := time.Now()
			body, err = in.conn.exec(st.text)
			lat = time.Since(t)
		} else {
			in.nstmt++
			id := in.nstmt
			cs := tr.begin("client.stmt", -1, id)
			rt := tr.begin("wire.roundtrip", cs, id)
			body, err = in.conn.exec(st.text)
			tr.end(rt)
			lat = tr.end(cs)
			if err == nil {
				if err := in.replay(tr, id, in.conn, st, body); err != nil {
					return out, err
				}
			}
		}
		var refused serverError
		if err == nil {
			err = st.check(body)
		} else if !errors.As(err, &refused) {
			return out, err // the connection broke: nothing more can be measured
		}
		out.add(st.tmpl, lat, err)
	}
	return out, nil
}

// replay estimates a wire statement's layers from outside the server:
// wire.echo (a constant select over the same connection) ⊃ engine.exec (the
// same constant select in process, so what remains is framing, session and
// scheduling), engine.compile (EXPLAIN PHYSICAL of the statement on an empty
// in-process twin of the schema) ⊃ sql.parse, engine.format (FormatResult of
// the oracle's rows) and wire.codec (WriteResponse + ReadResponse of the
// body, in memory).
func (in *wireInstance) replay(tr *tracer, id int, conn *wireConn, st *wireStmt, body string) error {
	ctx := context.Background()
	root := tr.begin("bench.replay", -1, id)
	defer tr.end(root)
	e := tr.begin("wire.echo", root, id)
	_, err := conn.exec("SELECT 1")
	tr.end(e)
	if err != nil {
		return err
	}
	x := tr.begin("engine.exec", e, id)
	_, err = in.twin.Exec(ctx, "SELECT 1")
	tr.end(x)
	if err != nil {
		return err
	}
	if st.tmpl != wireExplain {
		c := tr.begin("engine.compile", root, id)
		_, err = in.twin.Exec(ctx, "EXPLAIN PHYSICAL "+st.text)
		tr.end(c)
		if err != nil {
			return err
		}
		p := tr.begin("sql.parse", c, id)
		_, _ = sql.Parse(st.text)
		tr.end(p)
	}
	if st.want != nil {
		res := &engine.Result{Rows: st.want, Cols: make([]string, wantCols(st))}
		f := tr.begin("engine.format", root, id)
		_ = engine.FormatResult(res)
		tr.end(f)
	}
	w := tr.begin("wire.codec", root, id)
	err = codecRoundTrip(body)
	tr.end(w)
	return err
}

func wantCols(st *wireStmt) int {
	if len(st.want) == 0 {
		return 1
	}
	return len(st.want[0])
}

// codecRoundTrip frames body with wire.WriteResponse and reads it back.
func codecRoundTrip(body string) error {
	var buf strings.Builder
	bw := bufio.NewWriter(&buf)
	if err := wire.WriteResponse(bw, "", body); err != nil {
		return err
	}
	_, _, err := wire.ReadResponse(bufio.NewReader(strings.NewReader(buf.String())))
	return err
}
