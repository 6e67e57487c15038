package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vectorwise/internal/types"
)

// A template is one statement shape of a workload. Its oracle computes the
// expected rows in plain Go from the generated data: counts, integer sums and
// cardinalities compare exactly, float aggregates to 1e-9 relative, and
// ordered results in order.
type template struct {
	name    string
	sql     string
	ordered bool
	oracle  func(d *dataset) [][]types.Value
}

var (
	q1Cutoff   = types.DateFromYMD(1998, 9, 1)
	narrowLo   = types.DateFromYMD(1995, 3, 1)
	narrowHi   = types.DateFromYMD(1995, 3, 3)
	int64Val   = types.NewInt64
	float64Val = types.NewFloat64
	stringVal  = types.NewString
)

// scanTemplates are the six full-column statements of scan_decode; delta_read
// runs them too, plus deltaExtra.
var scanTemplates = []template{
	{name: "count_sum_int", sql: `SELECT COUNT(*), SUM(l_quantity) FROM lineitem`,
		oracle: func(d *dataset) [][]types.Value {
			var sum int64
			for i := range d.li {
				sum += int64(d.li[i].quantity)
			}
			return [][]types.Value{{int64Val(int64(len(d.li))), int64Val(sum)}}
		}},
	{name: "sum3_float", sql: `SELECT SUM(l_extendedprice), SUM(l_discount), SUM(l_tax) FROM lineitem`,
		oracle: func(d *dataset) [][]types.Value {
			var p, di, t float64
			for i := range d.li {
				p += d.li[i].price
				di += d.li[i].discount
				t += d.li[i].tax
			}
			return [][]types.Value{{float64Val(p), float64Val(di), float64Val(t)}}
		}},
	{name: "filter2", sql: `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-01' AND l_quantity < 25`,
		oracle: func(d *dataset) [][]types.Value {
			var n int64
			for i := range d.li {
				if d.li[i].shipdate <= q1Cutoff && d.li[i].quantity < 25 {
					n++
				}
			}
			return [][]types.Value{{int64Val(n)}}
		}},
	{name: "filter_minmax", sql: `SELECT COUNT(*), MIN(l_extendedprice), MAX(l_extendedprice) FROM lineitem WHERE l_quantity = 1`,
		oracle: func(d *dataset) [][]types.Value {
			var n int64
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range d.li {
				if d.li[i].quantity == 1 {
					n++
					lo, hi = math.Min(lo, d.li[i].price), math.Max(hi, d.li[i].price)
				}
			}
			return [][]types.Value{{int64Val(n), float64Val(lo), float64Val(hi)}}
		}},
	{name: "filter_pdict", sql: `SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 'R' AND l_shipmode = 'AIR'`,
		oracle: func(d *dataset) [][]types.Value {
			var n int64
			for i := range d.li {
				if d.li[i].flag == "R" && d.li[i].mode == "AIR" {
					n++
				}
			}
			return [][]types.Value{{int64Val(n)}}
		}},
	{name: "count_nullable", sql: `SELECT COUNT(l_comment) FROM lineitem`,
		oracle: func(d *dataset) [][]types.Value {
			var n int64
			for i := range d.li {
				if !d.li[i].commentNull {
					n++
				}
			}
			return [][]types.Value{{int64Val(n)}}
		}},
}

var deltaExtra = template{name: "range_narrow",
	sql: `SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-03'`,
	oracle: func(d *dataset) [][]types.Value {
		var n, sum int64
		for i := range d.li {
			if s := d.li[i].shipdate; s >= narrowLo && s <= narrowHi {
				n++
				sum += int64(d.li[i].quantity)
			}
		}
		return [][]types.Value{{int64Val(n), int64Val(sum)}}
	}}

const (
	joinGroupSQL = `SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`
	q1SQL        = `SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), MIN(l_extendedprice), MAX(l_extendedprice) FROM lineitem WHERE l_shipdate <= DATE '1998-09-01' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	parallel2    = ` WITH (PARALLEL=2)`
)

func joinGroupOracle(d *dataset) [][]types.Value {
	prio := make(map[int64]string, len(d.ord))
	for i := range d.ord {
		prio[d.ord[i].key] = d.ord[i].priority
	}
	type agg struct{ n, qty int64 }
	groups := map[string]*agg{}
	for i := range d.li {
		p, ok := prio[d.li[i].orderkey]
		if !ok {
			continue
		}
		g := groups[p]
		if g == nil {
			g = &agg{}
			groups[p] = g
		}
		g.n++
		g.qty += int64(d.li[i].quantity)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]types.Value
	for _, k := range keys {
		out = append(out, []types.Value{stringVal(k), int64Val(groups[k].n), int64Val(groups[k].qty)})
	}
	return out
}

func q1Oracle(d *dataset) [][]types.Value {
	type agg struct {
		n, qty int64
		lo, hi float64
	}
	groups := map[[2]string]*agg{}
	for i := range d.li {
		r := &d.li[i]
		if r.shipdate > q1Cutoff {
			continue
		}
		k := [2]string{r.flag, r.status}
		g := groups[k]
		if g == nil {
			g = &agg{lo: math.Inf(1), hi: math.Inf(-1)}
			groups[k] = g
		}
		g.n++
		g.qty += int64(r.quantity)
		g.lo, g.hi = math.Min(g.lo, r.price), math.Max(g.hi, r.price)
	}
	keys := make([][2]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	var out [][]types.Value
	for _, k := range keys {
		g := groups[k]
		out = append(out, []types.Value{stringVal(k[0]), stringVal(k[1]),
			int64Val(g.n), int64Val(g.qty), float64Val(g.lo), float64Val(g.hi)})
	}
	return out
}

// joinTemplates are the statements of join_agg_sort. The PARALLEL=2 variants
// use only order-independent aggregates (counts, integer sums, min/max), so
// their result does not depend on which worker took which row group.
var joinTemplates = []template{
	{name: "join_group", sql: joinGroupSQL, ordered: true, oracle: joinGroupOracle},
	{name: "group_partkey_top10", ordered: true,
		sql: `SELECT l_partkey, COUNT(*) AS c FROM lineitem GROUP BY l_partkey ORDER BY c DESC, l_partkey LIMIT 10`,
		oracle: func(d *dataset) [][]types.Value {
			counts := map[int64]int64{}
			for i := range d.li {
				counts[d.li[i].partkey]++
			}
			type kc struct{ k, c int64 }
			all := make([]kc, 0, len(counts))
			for k, c := range counts {
				all = append(all, kc{k, c})
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].c != all[b].c {
					return all[a].c > all[b].c
				}
				return all[a].k < all[b].k
			})
			var out [][]types.Value
			for _, e := range all[:min(10, len(all))] {
				out = append(out, []types.Value{int64Val(e.k), int64Val(e.c)})
			}
			return out
		}},
	{name: "sort_limit100", ordered: true,
		sql: `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey LIMIT 100`,
		oracle: func(d *dataset) [][]types.Value {
			idx := make([]int, len(d.li))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool {
				ra, rb := &d.li[idx[a]], &d.li[idx[b]]
				if ra.price != rb.price {
					return ra.price > rb.price
				}
				return ra.orderkey < rb.orderkey
			})
			var out [][]types.Value
			for _, i := range idx[:min(100, len(idx))] {
				out = append(out, []types.Value{int64Val(d.li[i].orderkey), float64Val(d.li[i].price)})
			}
			return out
		}},
	{name: "q1_agg", sql: q1SQL, ordered: true, oracle: q1Oracle},
	{name: "join_group_p2", sql: joinGroupSQL + parallel2, ordered: true, oracle: joinGroupOracle},
	{name: "q1_agg_p2", sql: q1SQL + parallel2, ordered: true, oracle: q1Oracle},
}

// sameValue compares an engine value with the oracle's: floats to 1e-9
// relative, everything else exactly (integer widths may differ).
func sameValue(got, want types.Value) bool {
	if got.Null || want.Null {
		return got.Null == want.Null
	}
	switch want.Kind {
	case types.KindFloat64:
		if got.Kind != types.KindFloat64 {
			return false
		}
		g, w := got.F64, want.F64
		return g == w || math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))
	case types.KindString:
		return got.Kind == types.KindString && got.Str == want.Str
	default:
		return got.Kind != types.KindFloat64 && got.Kind != types.KindString && got.I64 == want.I64
	}
}

// rowKey renders a row for order-normalising unordered results.
func rowKey(row []types.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.String())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// checkRows compares an engine result with the oracle's rows.
func checkRows(got, want [][]types.Value, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, oracle has %d", len(got), len(want))
	}
	if !ordered {
		got = append([][]types.Value(nil), got...)
		want = append([][]types.Value(nil), want...)
		sort.Slice(got, func(a, b int) bool { return rowKey(got[a]) < rowKey(got[b]) })
		sort.Slice(want, func(a, b int) bool { return rowKey(want[a]) < rowKey(want[b]) })
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, oracle has %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if !sameValue(got[i][c], want[i][c]) {
				return fmt.Errorf("row %d column %d: got %s, oracle has %s", i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

// parseBody turns the text table engine.FormatResult renders (and the wire
// carries) back into cells, so results that crossed the wire can be checked
// against the oracle too.
func parseBody(body string) ([][]string, error) {
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[len(lines)-1], "(") {
		return nil, fmt.Errorf("not a result table: %q", body)
	}
	var out [][]string
	for _, ln := range lines[2 : len(lines)-1] {
		cells := strings.Split(ln, " | ")
		for i := range cells {
			cells[i] = strings.TrimRight(cells[i], " ")
		}
		out = append(out, cells)
	}
	return out, nil
}

// checkBody compares a wire result body with the oracle's rows, cell text
// for cell text. Wire templates return only integers, strings, dates and
// stored floats, whose text is exact.
func checkBody(body string, want [][]types.Value, ordered bool) error {
	got, err := parseBody(body)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, oracle has %d", len(got), len(want))
	}
	wantS := make([]string, len(want))
	gotS := make([]string, len(got))
	for i := range want {
		wantS[i] = rowKey(want[i])
		gotS[i] = strings.Join(got[i], "\x1f") + "\x1f"
	}
	if !ordered {
		sort.Strings(wantS)
		sort.Strings(gotS)
	}
	for i := range wantS {
		if gotS[i] != wantS[i] {
			return fmt.Errorf("row %d: got %q, oracle has %q", i, gotS[i], wantS[i])
		}
	}
	return nil
}
