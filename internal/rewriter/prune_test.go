package rewriter

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// chooser is where treeGen takes its decisions from: a *rand.Rand for the
// property test, the fuzz input for FuzzPruneDecomposed.
type chooser interface{ Intn(n int) int }

// byteChooser takes each decision from the next input byte; an exhausted
// input always chooses 0, which ends the tree at a scan.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// treeGen builds random operator trees as the cross compiler emits them:
// NULLable columns, RID scans, ranges, every join kind and the binder's
// empty projection under COUNT(*). Every scan column has a unique name, and
// expr.Col carries the name it was built against, so a positional reference
// that was remapped wrongly shows as a name mismatch.
type treeGen struct {
	rng    chooser
	tables int
	names  int
}

var genTypes = []types.T{types.Int64, types.Int64.Null(), types.Int32, types.String,
	types.String.Null(), types.Bool.Null(), types.Float64.Null()}

func (g *treeGen) scan() physical.Node {
	g.tables++
	cols := &types.Schema{}
	for c := 0; c < 1+g.rng.Intn(6); c++ {
		ty := genTypes[g.rng.Intn(len(genTypes))]
		if c == 0 {
			ty = genTypes[g.rng.Intn(2)] // joins, ranges and sums always find a BIGINT
		}
		cols.Cols = append(cols.Cols, types.Col(fmt.Sprintf("t%d_c%d", g.tables, c), ty))
	}
	spec := &scanspec.Spec{Table: fmt.Sprintf("t%d", g.tables), Structure: "vectorwise", Cols: cols,
		RID: g.rng.Intn(4) == 0}
	if g.rng.Intn(2) == 0 {
		lo := types.NewInt64(int64(g.rng.Intn(100)))
		spec.Ranges = []scanspec.Range{{Col: g.intCol(cols), Lo: &lo}}
		spec.Window = &scanspec.Window{Lo: 1, Hi: 3, Total: 9}
	}
	return &physical.Scan{ScanCols: physical.ScanCols{Spec: spec, Out: spec.Schema()}}
}

// intCol picks a BIGINT column of s, NULLable or not.
func (g *treeGen) intCol(s *types.Schema) int {
	var ok []int
	for i, c := range s.Cols {
		if c.Type.Kind == types.KindInt64 && c.Name != scanspec.RIDName {
			ok = append(ok, i)
		}
	}
	if len(ok) == 0 {
		return -1
	}
	return ok[g.rng.Intn(len(ok))]
}

// pick returns 1 to max distinct positions of s in random order.
func (g *treeGen) pick(s *types.Schema, max int) []int {
	perm := make([]int, s.Len())
	for i := range perm {
		j := g.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], i
	}
	return perm[:1+g.rng.Intn(min(max, len(perm)))]
}

func colRef(s *types.Schema, i int) *expr.ColRef { return expr.Col(i, s.Cols[i].Name, s.Cols[i].Type) }

func (g *treeGen) name() string { g.names++; return fmt.Sprintf("n%d", g.names) }

func (g *treeGen) node(depth int) physical.Node {
	if depth == 0 {
		if g.rng.Intn(8) == 1 {
			return &physical.Values{Rows: [][]types.Value{{types.NewInt64(1), types.NewNull(types.KindInt64)}},
				Out: types.NewSchema(types.Col(g.name(), types.Int64), types.Col(g.name(), types.Int64.Null()))}
		}
		return g.scan()
	}
	child := g.node(depth - 1)
	s := child.Schema()
	switch g.rng.Intn(9) {
	case 1:
		c := g.pick(s, 1)[0]
		if s.Cols[c].Type.Nullable && g.rng.Intn(2) == 0 {
			return &physical.Select{Child: child, Pred: expr.NewCall("isnull", colRef(s, c))}
		}
		if c := g.intCol(s); c >= 0 {
			return &physical.Select{Child: child, Pred: expr.NewCall(">", colRef(s, c), expr.CInt(int64(g.rng.Intn(50))))}
		}
	case 2:
		p := &physical.Project{Child: child}
		for _, c := range g.pick(s, s.Len()) {
			p.Exprs, p.Names = append(p.Exprs, colRef(s, c)), append(p.Names, g.name())
		}
		if c := g.intCol(s); c >= 0 {
			p.Exprs = append(p.Exprs, expr.NewCall("+", colRef(s, c), expr.CInt(1)))
			p.Names = append(p.Names, g.name())
		}
		return p
	case 3:
		right := g.node(depth - 1)
		l, r := g.intCol(s), g.intCol(right.Schema())
		if l < 0 || r < 0 {
			return child
		}
		jt := []exec.JoinType{exec.Inner, exec.LeftOuter, exec.Semi, exec.Anti, exec.AntiNullAware}[g.rng.Intn(5)]
		return &physical.HashJoin{Left: child, Right: right, Type: jt,
			LeftKeys: []int{l}, RightKeys: []int{r}, LeftKeyNull: -1, RightKeyNull: -1}
	case 4:
		a := &physical.HashAgg{Child: child}
		if g.rng.Intn(3) == 0 {
			// COUNT(*) over the binder's empty projection.
			a.Child = &physical.Project{Child: child}
		} else {
			groups := g.pick(s, 2)
			for _, c := range groups[:g.rng.Intn(len(groups)+1)] {
				a.GroupCols, a.Names = append(a.GroupCols, c), append(a.Names, g.name())
			}
			a.Aggs, a.Names = append(a.Aggs, exec.AggSpec{Fn: exec.AggCount, Col: g.pick(s, 1)[0]}), append(a.Names, g.name())
			mm := []exec.AggFn{exec.AggMin, exec.AggMax}[g.rng.Intn(2)]
			a.Aggs, a.Names = append(a.Aggs, exec.AggSpec{Fn: mm, Col: g.pick(s, 1)[0]}), append(a.Names, g.name())
			if c := g.intCol(s); c >= 0 {
				fn := []exec.AggFn{exec.AggSum, exec.AggAvg}[g.rng.Intn(2)]
				a.Aggs, a.Names = append(a.Aggs, exec.AggSpec{Fn: fn, Col: c}), append(a.Names, g.name())
			}
		}
		a.Aggs, a.Names = append(a.Aggs, exec.AggSpec{Fn: exec.AggCount, Col: -1}), append(a.Names, g.name())
		return a
	case 5, 6:
		var keys []exec.SortKey
		for _, c := range g.pick(s, 2) {
			keys = append(keys, exec.SortKey{Col: c, Desc: g.rng.Intn(2) == 0})
		}
		if g.rng.Intn(2) == 0 {
			return &physical.Sort{Child: child, Keys: keys}
		}
		return &physical.TopN{Child: child, Keys: keys, N: 1 + g.rng.Intn(10)}
	case 7:
		return &physical.Limit{Child: child, Offset: int64(g.rng.Intn(3)), N: int64(g.rng.Intn(10))}
	}
	return child
}

// checkRefs verifies every positional reference of n against its children's
// schemas: in range, and — for ColRefs and join keys — of the kind it
// points at.
func checkRefs(t *testing.T, n physical.Node) {
	t.Helper()
	colOK := func(c int, in *types.Schema, kind types.Kind, what string) {
		if c < 0 || c >= in.Len() {
			t.Errorf("%s: %s %d is out of range of %s", n.Line(), what, c, in)
		} else if kind != types.KindInvalid && in.Cols[c].Type.Kind != kind {
			t.Errorf("%s: %s %d is %v, want %v", n.Line(), what, c, in.Cols[c].Type.Kind, kind)
		}
	}
	exprOK := func(e expr.Expr, in *types.Schema) {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.ColRef); ok {
				colOK(c.Idx, in, c.T.Kind, "reference "+c.Name)
			}
			return true
		})
	}
	keysOK := func(keys []exec.SortKey, in *types.Schema) {
		for _, k := range keys {
			colOK(k.Col, in, types.KindInvalid, "sort key")
		}
	}
	switch x := n.(type) {
	case *physical.Select:
		exprOK(x.Pred, x.Child.Schema())
	case *physical.Project:
		for _, e := range x.Exprs {
			exprOK(e, x.Child.Schema())
		}
	case *physical.HashJoin:
		ls, rs := x.Left.Schema(), x.Right.Schema()
		for i := range x.LeftKeys {
			colOK(x.LeftKeys[i], ls, types.KindInvalid, "left key")
			if !t.Failed() {
				colOK(x.RightKeys[i], rs, ls.Cols[x.LeftKeys[i]].Type.Kind, "right key")
			}
		}
		if x.LeftKeyNull >= 0 {
			colOK(x.LeftKeyNull, ls, types.KindBool, "left NULL-key indicator")
		}
		if x.RightKeyNull >= 0 {
			colOK(x.RightKeyNull, rs, types.KindBool, "right NULL-key indicator")
		}
	case *physical.HashAgg:
		in := x.Child.Schema()
		for _, g := range x.GroupCols {
			colOK(g, in, types.KindInvalid, "group column")
		}
		for _, a := range x.Aggs {
			if a.Col >= 0 {
				colOK(a.Col, in, types.KindInvalid, "aggregate column")
			}
			if c := a.IndCol(); c >= 0 {
				colOK(c, in, types.KindBool, "aggregate indicator")
			}
		}
	case *physical.Sort:
		keysOK(x.Keys, x.Child.Schema())
	case *physical.TopN:
		keysOK(x.Keys, x.Child.Schema())
	}
	for _, c := range n.Children() {
		checkRefs(t, c)
	}
}

// colIDs names every output column of n by where it comes from: a stored
// column by its table and name, anything else by what it computes over its
// inputs' ids. Schema names cannot serve: decomposition names the outputs of
// every left join l0, r0, … and of every aggregate $o0, ….
// A column that survives pruning keeps its id, so comparing ids compares
// what two trees compute.
func colIDs(n physical.Node) []string {
	var in [][]string
	for _, c := range n.Children() {
		in = append(in, colIDs(c))
	}
	var out []string
	switch x := n.(type) {
	case *physical.Scan:
		for _, c := range x.Out.Cols {
			out = append(out, x.Spec.Table+"."+c.Name)
		}
	case *physical.Values:
		for _, c := range x.Out.Cols {
			out = append(out, "values."+c.Name)
		}
	case *physical.Project:
		for _, e := range x.Exprs {
			if c, ok := e.(*expr.ColRef); ok {
				out = append(out, idOf(in[0], c.Idx)) // a rename computes nothing
			} else {
				out = append(out, renderOver(e, in[0]))
			}
		}
	case *physical.HashJoin:
		out = append(out, in[0]...)
		if x.Type == exec.Inner || x.Type == exec.LeftOuter {
			out = append(out, in[1]...)
		}
		if x.WithMatch {
			out = append(out, fmt.Sprintf("match(%s)", strings.Join(joinKeyIDs(x, in[0], in[1]), ", ")))
		}
	case *physical.HashAgg:
		for _, g := range x.GroupCols {
			out = append(out, "group("+idOf(in[0], g)+")")
		}
		for _, a := range x.Aggs {
			skip := ""
			if c := a.IndCol(); c >= 0 {
				skip = " skip " + idOf(in[0], c)
			}
			out = append(out, fmt.Sprintf("%v(%s%s)", a.Fn, idOf(in[0], a.Col), skip))
		}
	default: // Select, Sort, TopN, Limit pass their input through
		out = in[0]
	}
	return out
}

func idOf(ids []string, c int) string {
	if c < 0 || c >= len(ids) {
		return "*"
	}
	return ids[c]
}

// renderOver prints e with every column reference replaced by the id of the
// input column it points at.
func renderOver(e expr.Expr, ids []string) string { return overIDs(e, ids).String() }

func overIDs(e expr.Expr, ids []string) expr.Expr {
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(*expr.ColRef); ok {
			return &expr.ColRef{Idx: c.Idx, Name: "{" + idOf(ids, c.Idx) + "}", T: c.T}
		}
		return x
	})
}

// projection lists what p computes, one name=expression over its input's
// ids per column.
func projection(p *physical.Project) []string {
	in := colIDs(p.Child)
	out := make([]string, len(p.Names))
	for i := range p.Names {
		out[i] = p.Names[i] + "=" + renderOver(p.Exprs[i], in)
	}
	return out
}

// prunedFrom reports whether after is what pruning kept of the Project b:
// a Project computing some of b's columns, in b's order.
func prunedFrom(b *physical.Project, after physical.Node) bool {
	a, ok := after.(*physical.Project)
	return ok && isSubsequence(projection(a), projection(b))
}

// isSubset reports whether every entry of sub is among all's.
func isSubset(sub, all []string) bool {
	for _, s := range sub {
		if !slices.Contains(all, s) {
			return false
		}
	}
	return true
}

// joinKeyIDs lists a join's key pairs and NULL-key indicators by id.
func joinKeyIDs(j *physical.HashJoin, l, r []string) []string {
	var out []string
	for i := range j.LeftKeys {
		out = append(out, idOf(l, j.LeftKeys[i])+"="+idOf(r, j.RightKeys[i]))
	}
	if j.LeftKeyNull >= 0 || j.RightKeyNull >= 0 {
		out = append(out, "null:"+idOf(l, j.LeftKeyNull)+"/"+idOf(r, j.RightKeyNull))
	}
	return out
}

// isSubsequence reports whether sub lists some of all's entries, in order.
func isSubsequence(sub, all []string) bool {
	at := 0
	for _, s := range sub {
		for at < len(all) && all[at] != s {
			at++
		}
		if at == len(all) {
			return false
		}
		at++
	}
	return true
}

// subtreeIDs lists the columns n and every node below it compute.
func subtreeIDs(n physical.Node) []string {
	out := colIDs(n)
	for _, c := range n.Children() {
		out = append(out, subtreeIDs(c)...)
	}
	return out
}

// checkSame walks the decomposed tree before and after pruning in step:
// every node reads what it read before, by what its references point at,
// and emits some of the columns it computed before. The pass drops the
// Projects that compute nothing and merges a Select into the Select below
// it, so the walk steps over a Project that has no pruned counterpart, and
// checks a merged Select against the conjunction of the Selects it
// replaced, the lowest first. A dropped Project may have reordered its
// input, so the columns are compared as a set. One that nothing read lets
// the columns below it show through the nodes above it, up to the first
// node that reads nothing of them; so where read is false (nothing above
// reads after's output) the columns need only be among those the subtree
// computed before.
func checkSame(t *testing.T, before, after physical.Node, read bool) {
	t.Helper()
	for {
		p, ok := before.(*physical.Project)
		if !ok || prunedFrom(p, after) {
			break
		}
		before = p.Child
	}
	if before.Op() != after.Op() {
		t.Fatalf("%s became %s", before.Line(), after.Line())
	}
	was := colIDs(before)
	if !read {
		was = subtreeIDs(before)
	}
	if a := colIDs(after); !isSubset(a, was) {
		t.Errorf("%s: columns %q are not among %q", after.Line(), a, was)
	}
	if b, ok := before.(*physical.Select); ok {
		a := after.(*physical.Select)
		var preds []expr.Expr // the merged predicates, the top one first
		var below physical.Node = b
		for {
			if p, ok := below.(*physical.Project); ok && !prunedFrom(p, a.Child) {
				below = p.Child
				continue
			}
			s, ok := below.(*physical.Select)
			if !ok {
				break
			}
			preds, below = append(preds, overIDs(s.Pred, colIDs(s.Child))), s.Child
		}
		want := preds[len(preds)-1]
		for i := len(preds) - 2; i >= 0; i-- {
			want = expr.And(want, preds[i])
		}
		if got := renderOver(a.Pred, colIDs(a.Child)); got != want.String() {
			t.Errorf("%s: predicate %s, want %s", a.Line(), got, want)
		}
		checkSame(t, below, a.Child, read || len(expr.Cols(a.Pred)) > 0)
		return
	}
	bc, ac := before.Children(), after.Children()
	if len(bc) != len(ac) {
		t.Fatalf("%s has %d children, %s has %d", before.Line(), len(bc), after.Line(), len(ac))
	}
	var bin, ain [][]string
	for i := range bc {
		bin, ain = append(bin, colIDs(bc[i])), append(ain, colIDs(ac[i]))
	}
	keys := func(in []string, ks []exec.SortKey) (out []string) {
		for _, k := range ks {
			out = append(out, fmt.Sprintf("%s desc=%v", idOf(in, k.Col), k.Desc))
		}
		return out
	}
	var bs, as []string // what the node reads, besides the columns it emits
	switch b := before.(type) {
	case *physical.Scan:
		a := after.(*physical.Scan)
		if a.Spec != b.Spec {
			t.Errorf("scan spec replaced: %s -> %s", b.Line(), a.Line())
		}
	case *physical.Project:
		// prunedFrom held: a subsequence of b's columns.
	case *physical.HashJoin:
		a := after.(*physical.HashJoin)
		if a.Type != b.Type || a.WithMatch != b.WithMatch {
			t.Errorf("join changed: %s -> %s", b.Line(), a.Line())
		}
		bs, as = joinKeyIDs(b, bin[0], bin[1]), joinKeyIDs(a, ain[0], ain[1])
	case *physical.HashAgg:
		if a := after.(*physical.HashAgg); !reflect.DeepEqual(a.Names, b.Names) {
			t.Errorf("aggregate renamed its outputs: %s -> %s", b.Line(), a.Line())
		}
	case *physical.Sort:
		bs, as = keys(bin[0], b.Keys), keys(ain[0], after.(*physical.Sort).Keys)
	case *physical.TopN:
		a := after.(*physical.TopN)
		bs, as = append(keys(bin[0], b.Keys), fmt.Sprint(b.N)), append(keys(ain[0], a.Keys), fmt.Sprint(a.N))
	case *physical.Limit:
		a := after.(*physical.Limit)
		bs, as = []string{fmt.Sprint(b.Offset, b.N)}, []string{fmt.Sprint(a.Offset, a.N)}
	}
	if !reflect.DeepEqual(as, bs) {
		t.Errorf("%s changed: %q -> %q", before.Line(), bs, as)
	}
	for i := range bc {
		checkSame(t, bc[i], ac[i], readsChild(after, read))
	}
}

// readsChild reports whether anything reads the output of n's children,
// given whether anything reads n's own (read).
func readsChild(n physical.Node, read bool) bool {
	switch x := n.(type) {
	case *physical.Select:
		return read || len(expr.Cols(x.Pred)) > 0
	case *physical.Project:
		for _, e := range x.Exprs {
			if len(expr.Cols(e)) > 0 {
				return true
			}
		}
		return false
	case *physical.HashAgg:
		for _, a := range x.Aggs {
			if a.Col >= 0 || a.IndCol() >= 0 {
				return true
			}
		}
		return len(x.GroupCols) > 0
	case *physical.Sort:
		return read || len(x.Keys) > 0
	case *physical.TopN:
		return read || len(x.Keys) > 0
	case *physical.Limit:
		return read
	}
	return true // a join reads its keys
}

// checkAllRead recomputes, independently of the pass, which of n's output
// columns its ancestors read (used), and fails on a scan column nobody
// reads — unless it is the single column a scan with no readers keeps: the
// value (never the indicator) of the cheapest column, and never $rid.
func checkAllRead(t *testing.T, n physical.Node, used map[int]bool) {
	t.Helper()
	mark := func(dst map[int]bool, e expr.Expr) {
		for _, c := range expr.Cols(e) {
			dst[c] = true
		}
	}
	clone := func() map[int]bool {
		out := map[int]bool{}
		for c := range used {
			out[c] = true
		}
		return out
	}
	withKeys := func(keys []exec.SortKey) map[int]bool {
		out := clone()
		for _, k := range keys {
			out[k.Col] = true
		}
		return out
	}
	switch x := n.(type) {
	case *physical.Scan:
		stored := x.Out.Len()
		if x.Spec.RID {
			stored--
			if x.Out.Cols[stored].Name != scanspec.RIDName {
				t.Errorf("%s: $rid is not last", x.Line())
			}
		}
		for _, r := range x.Spec.Ranges {
			c := x.Out.Find(x.Spec.Cols.Cols[r.Col].Name)
			if c < 0 {
				t.Errorf("%s: dropped the column of range %s", x.Line(), r)
			}
			used[c] = true
		}
		reads := 0
		for i := 0; i < stored; i++ {
			if used[i] {
				reads++
			}
		}
		if reads == 0 {
			want := x.Spec.Cols.Cols[cheapestColumn(x.Spec.Cols)].Name
			if stored != 1 || x.Out.Cols[0].Name != want {
				t.Errorf("%s: nothing is read, want only %s kept for the row count", x.Line(), want)
			}
		} else if reads != stored {
			t.Errorf("%s: only columns %v are read", x.Line(), used)
		}
	case *physical.Select:
		below := clone()
		mark(below, x.Pred)
		checkAllRead(t, x.Child, below)
	case *physical.Project:
		if len(used) == 0 {
			t.Errorf("%s: nothing reads it", x.Line())
		}
		below := map[int]bool{}
		for i, e := range x.Exprs {
			if used[i] {
				mark(below, e)
			}
		}
		checkAllRead(t, x.Child, below)
	case *physical.HashJoin:
		nl, nr := x.Left.Schema().Len(), x.Right.Schema().Len()
		l, r := map[int]bool{}, map[int]bool{}
		for c := range used {
			if c < nl {
				l[c] = true
			} else if c < nl+nr && (x.Type == exec.Inner || x.Type == exec.LeftOuter) {
				r[c-nl] = true
			}
		}
		for i := range x.LeftKeys {
			l[x.LeftKeys[i]], r[x.RightKeys[i]] = true, true
		}
		if x.LeftKeyNull >= 0 {
			l[x.LeftKeyNull] = true
		}
		if x.RightKeyNull >= 0 {
			r[x.RightKeyNull] = true
		}
		checkAllRead(t, x.Left, l)
		checkAllRead(t, x.Right, r)
	case *physical.HashAgg:
		below := map[int]bool{}
		for _, g := range x.GroupCols {
			below[g] = true
		}
		for _, a := range x.Aggs {
			if a.Col >= 0 {
				below[a.Col] = true
			}
			if c := a.IndCol(); c >= 0 {
				below[c] = true
			}
		}
		checkAllRead(t, x.Child, below)
	case *physical.Sort:
		checkAllRead(t, x.Child, withKeys(x.Keys))
	case *physical.TopN:
		checkAllRead(t, x.Child, withKeys(x.Keys))
	case *physical.Limit:
		checkAllRead(t, x.Child, used)
	}
}

// checkComputes fails on an operator of a pruned plan that computes
// nothing: a Select right over a Select, or, off the root's spine, a Project
// that passes all of its child's columns through. The spine is what keeps
// the root's layout: the Selects, Sorts, TopNs and Limits, and the inputs a
// join emits, down to the first Project. (checkAllRead fails on a Project
// nothing reads.)
func checkComputes(t *testing.T, n physical.Node, spine bool) {
	t.Helper()
	kids := n.Children()
	spines := make([]bool, len(kids))
	switch x := n.(type) {
	case *physical.Select:
		if _, ok := x.Child.(*physical.Select); ok {
			t.Errorf("%s sits on %s", x.Line(), x.Child.Line())
		}
		spines[0] = spine
	case *physical.Sort, *physical.TopN, *physical.Limit:
		spines[0] = spine
	case *physical.HashJoin:
		spines[0], spines[1] = spine, spine && (x.Type == exec.Inner || x.Type == exec.LeftOuter)
	case *physical.Project:
		if !spine && x.PassesThrough() {
			t.Errorf("%s passes its child's columns through", x.Line())
		}
	}
	for i, c := range kids {
		checkComputes(t, c, spines[i])
	}
}

// checkPruned runs one generated tree through Rewrite and checks the pruned
// result against the decomposed tree it came from.
func checkPruned(t *testing.T, g *treeGen, depth int) {
	t.Helper()
	tree := g.node(depth)
	checkRefs(t, tree) // the generator itself must be sound
	before, cm, err := decompose(tree)
	if err != nil {
		t.Fatalf("decompose: %v\n%s", err, physical.Format(tree))
	}
	res, err := Rewrite(tree, Options{})
	if err != nil {
		t.Fatalf("Rewrite: %v\n%s", err, physical.Format(tree))
	}
	after := res.Node
	if got, want := after.Schema().String(), before.Schema().String(); got != want {
		t.Fatalf("output schema changed from %s to %s\n%s", want, got, physical.Format(before))
	}
	if !reflect.DeepEqual(res.ColMap, cm) {
		t.Fatalf("ColMap changed from %+v to %+v", cm, res.ColMap)
	}
	checkRefs(t, after)
	checkSame(t, before, after, true)
	if b, a := colIDs(before), colIDs(after); !reflect.DeepEqual(a, b) {
		t.Errorf("the root computes %q, want %q", a, b)
	}
	checkComputes(t, after, true)
	rootUsed := map[int]bool{}
	for c := 0; c < after.Schema().Len(); c++ {
		rootUsed[c] = true
	}
	checkAllRead(t, after, rootUsed)
	if again := pruneDecomposed(after); physical.Format(again) != physical.Format(after) {
		t.Fatalf("not idempotent\nonce:\n%s\ntwice:\n%s", physical.Format(after), physical.Format(again))
	}
	if t.Failed() {
		t.Fatalf("before:\n%safter:\n%s", physical.Format(before), physical.Format(after))
	}
}

func TestPruneColumnsProperties(t *testing.T) {
	g := &treeGen{rng: rand.New(rand.NewSource(16))}
	for i := 0; i < 400; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkPruned(t, g, 1+g.rng.Intn(4)) })
		if t.Failed() {
			return
		}
	}
}

// FuzzPruneDecomposed takes every decision of the tree generator from the
// fuzz input and checks the pruned tree as TestPruneColumnsProperties does.
func FuzzPruneDecomposed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 3, 0, 2, 7, 1, 5, 2, 1, 0, 3, 3, 0, 1})
	f.Add([]byte{3, 3, 2, 4, 1, 9, 0, 1, 1, 6, 2, 5, 0, 8, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		g := &treeGen{rng: &byteChooser{b: in}}
		checkPruned(t, g, 1+g.rng.Intn(4))
	})
}

// otherNode is a node kind the pass has never heard of.
type otherNode struct{ physical.Limit }

func (o *otherNode) WithChildren(ch []physical.Node) physical.Node {
	return &otherNode{physical.Limit{Child: ch[0], N: o.N}}
}

// An unknown node kind requires all of its child's columns, and pruning
// resumes below the next node the pass does understand.
func TestPruneColumnsUnknownNodeIsConservative(t *testing.T) {
	scan := scanNode(types.Col("a", types.Int64), types.Col("b", types.String), types.Col("c", types.Int32))
	s := scan.Schema()
	inner := &physical.Project{Child: scan, Exprs: []expr.Expr{colRef(s, 2), colRef(s, 0)}, Names: []string{"c", "a"}}
	other := &otherNode{physical.Limit{Child: inner, N: 5}}
	os := other.Schema()
	root := &physical.Project{Child: other, Exprs: []expr.Expr{colRef(os, 1)}, Names: []string{"a"}}
	out := physical.Format(pruneDecomposed(root))
	if !strings.Contains(out, "Project(c=c, a=a)") || !strings.Contains(out, "Scan('t', [a c] @ [])") {
		t.Fatalf("unknown node was not treated conservatively:\n%s", out)
	}
}

func TestCheapestColumn(t *testing.T) {
	for _, c := range []struct {
		cols []types.Column
		want int
	}{
		{[]types.Column{types.Col("s", types.String), types.Col("k", types.Int64), types.Col("q", types.Int32), types.Col("d", types.Date)}, 2},
		{[]types.Column{types.Col("k", types.Int64), types.Col("b", types.Bool.Null()), types.Col("q", types.Int32)}, 1},
		{[]types.Column{types.Col("n", types.Int32.Null()), types.Col("f", types.Float64), types.Col("q", types.Int32)}, 2},
		{[]types.Column{types.Col("s", types.String.Null()), types.Col("t", types.String)}, 1},
	} {
		if got := cheapestColumn(types.NewSchema(c.cols...)); got != c.want {
			t.Errorf("cheapestColumn(%v) = %d, want %d", c.cols, got, c.want)
		}
	}
}

// findScan returns the first Scan in a tree (prefix order).
func findScan(n physical.Node) *physical.Scan {
	if s, ok := n.(*physical.Scan); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

// The position column of a RID scan is not stored: pruning never drops it,
// never keeps it as the one column that carries the row count, and leaves it
// last, with every reference to it moved along.
func TestPruneColumnsKeepsRIDLast(t *testing.T) {
	ridScan := func(cols ...types.Column) *physical.Scan {
		s := scanNode(cols...)
		s.Spec.RID = true
		s.Out = s.Spec.Schema()
		return s
	}
	project := func(child physical.Node, cols ...int) *physical.Project {
		p := &physical.Project{Child: child}
		for _, c := range cols {
			p.Exprs, p.Names = append(p.Exprs, colRef(child.Schema(), c)), append(p.Names, child.Schema().Cols[c].Name)
		}
		return p
	}
	rewrite := func(n physical.Node) string {
		t.Helper()
		res, err := Rewrite(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkRefs(t, res.Node)
		return physical.Format(res.Node)
	}

	// UPDATE t SET b = … WHERE a > 1: the search reads a, emits $rid and b.
	scan := ridScan(types.Col("a", types.Int64), types.Col("b", types.Int64.Null()),
		types.Col("c", types.String), types.Col("d", types.Float64))
	lo := types.NewInt64(1)
	scan.Spec.Ranges = []scanspec.Range{{Col: 0, Lo: &lo}}
	sel := &physical.Select{Child: scan, Pred: expr.NewCall(">", colRef(scan.Schema(), 0), expr.CInt(1))}
	if got, want := rewrite(project(sel, 4, 1)),
		"Project($rid=$rid, b=b, b$null=b$null) :: [BIGINT, BIGINT, BOOLEAN]\n"+
			"  Select((a > 1)) :: [BIGINT, BIGINT, BOOLEAN, BIGINT]\n"+
			"    Scan('t', [a b b$null] @ [], +$rid, ranges=[$0 in [1,+inf]]) :: [BIGINT, BIGINT, BOOLEAN, BIGINT]\n"; got != want {
		t.Errorf("pruned search plan:\n%swant:\n%s", got, want)
	}

	// DELETE FROM t: only positions are read, so the cheapest stored column
	// stays to carry the row count — its value alone, also when every
	// column is NULLable.
	all := ridScan(types.Col("s", types.String), types.Col("k", types.Int64), types.Col("q", types.Int32))
	if got, want := rewrite(project(all, 3)),
		"Project($rid=$rid) :: [BIGINT]\n  Scan('t', [q] @ [], +$rid) :: [INTEGER, BIGINT]\n"; got != want {
		t.Errorf("pruned unfiltered search:\n%swant:\n%s", got, want)
	}
	nullable := ridScan(types.Col("k", types.Int64.Null()), types.Col("w", types.String.Null()))
	if got, want := rewrite(project(nullable, 2)),
		"Project($rid=$rid) :: [BIGINT]\n  Scan('t', [k] @ [], +$rid) :: [BIGINT, BIGINT]\n"; got != want {
		t.Errorf("pruned search over NULLable columns:\n%swant:\n%s", got, want)
	}

	// Everything read: the scan node is kept as it is.
	full, _, err := decompose(project(all, 3, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := findScan(pruneDecomposed(full)); got != findScan(full) {
		t.Errorf("fully read RID scan was rebuilt: %s", got.Line())
	}
}
