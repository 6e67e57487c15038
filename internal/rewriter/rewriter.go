// Package rewriter is the Vectorwise rewriter of Figure 1: a rule-based
// transformation layer over the operator tree (internal/physical) the cross
// compiler emits, before the plan is resolved against storage and run. The
// paper credits it with most of the "filling functionality holes at a
// higher level" work; this implementation covers the passes the paper
// names (constant folding happens once, earlier, in the optimizer, where
// range extraction needs the folded literals):
//
//   - NULL decomposition — rewriting every NULLable column into a value
//     column plus a BOOL indicator column so the kernel stays NULL-
//     oblivious (claim C6), including the anti-join NULL
//     intricacies of claim C10,
//   - column pruning, the plan's one projection pushdown — narrowing every
//     node to the columns its ancestors read and every scan to the value
//     and indicator columns read (a NULLable column counted or tested for
//     NULL scans its indicator only); on the way it drops the Projects that
//     compute nothing and merges adjacent Selects,
//   - the Volcano-style parallelizer — splitting pipelines across cores
//     with exchange operators (claim C9). Parallel scans are
//     morsel-driven: the rewriter clones a scan chain into P ParallelScan
//     workers that all hold one run-time work queue of row-group morsels
//     (a shared *physical.ScanQueue), so work distribution happens at Open,
//     not at compile — skew self-balances by work stealing, and deltas
//     arriving between compile and run only change what the queue serves.
//     Placement rules: HashAgg over a scan chain becomes partial aggregates
//     exchanged (Xchg) into a final aggregate; Sort and TopN become
//     per-worker local sorts merged order-preservingly by XchgMerge (TopN
//     additionally re-limited); a HashJoin whose probe side is a scan chain
//     becomes a ParallelHashJoin — one shared build, P concurrent probe
//     fragments. The degree is Options.Parallel capped by GroupsHint (no
//     point running more workers than the table has row groups).
//
// (The original used the Tom pattern-matching tool [5]; hand-written
// visitors replace it here.)
package rewriter

import (
	"fmt"

	"vectorwise/internal/exec"
	"vectorwise/internal/expr"
	"vectorwise/internal/physical"
	"vectorwise/internal/scanspec"
	"vectorwise/internal/types"
)

// Options configure the rewrite pipeline.
type Options struct {
	// Parallel is the desired degree of parallelism (≤1 = serial).
	Parallel int
	// GroupsHint tells the parallelizer how many row-group morsels the
	// scanned table's stable storage offers the given scan, so the degree
	// can be capped at the morsel count (engine supplies it; nil disables
	// the cap). The spec's ranges let the engine shrink the estimate to the
	// clustered group window a range scan will actually touch. Unlike the
	// old partition hint it must NOT reflect transient delta state —
	// run-time morsel sources handle deltas.
	GroupsHint func(spec *scanspec.Spec) int
}

// Result is the rewritten, NULL-free tree plus the mapping from the query's
// logical output columns to physical (value, indicator) pairs.
type Result struct {
	Node   physical.Node
	ColMap ColMap
	// Logical is the pre-decomposition output schema (for result headers).
	Logical *types.Schema
}

// Rewrite runs the full pipeline.
func Rewrite(n physical.Node, opts Options) (*Result, error) {
	logical := n.Schema().Clone()
	n, cm, err := decompose(n)
	if err != nil {
		return nil, err
	}
	n = pruneDecomposed(n)
	if opts.Parallel > 1 {
		pc := &parCtx{opts: opts}
		n = pc.parallelize(n)
	}
	return &Result{Node: n, ColMap: cm, Logical: logical}, nil
}

// ColMap maps logical columns to physical value/indicator columns (ind -1
// when the column can never be NULL).
type ColMap struct {
	Val []int
	Ind []int
}

// --- parallelizer (claim C9) ---

// parCtx carries parallelizer state: the options plus a counter handing out
// morsel-queue IDs, one per parallelized scan chain (the P worker clones of
// one chain share a queue; distinct chains get distinct queues).
type parCtx struct {
	opts   Options
	nextID int
}

// degree picks the worker count for a scan: Options.Parallel capped by the
// row-group morsel count the scan can actually touch.
func (pc *parCtx) degree(scan *physical.Scan) int {
	p := pc.opts.Parallel
	if pc.opts.GroupsHint != nil {
		if g := pc.opts.GroupsHint(scan.Spec); g >= 0 && g < p {
			p = g
		}
	}
	return p
}

// morselChains clones a scan chain into p ParallelScan workers sharing one
// queue.
func (pc *parCtx) morselChains(chain physical.Node, p int) []physical.Node {
	q := &physical.ScanQueue{ID: pc.nextID, Workers: p}
	pc.nextID++
	out := make([]physical.Node, p)
	for w := range out {
		out[w] = cloneChainMorsel(chain, q, w)
	}
	return out
}

// chainDegree returns the scan chain's parallel degree, or 0 when the chain
// must stay serial (no serial vectorwise scan, degree cap ≤ 1).
func (pc *parCtx) chainDegree(chain physical.Node) int {
	scan := scanOfChain(chain)
	if scan == nil {
		return 0
	}
	if p := pc.degree(scan); p > 1 {
		return p
	}
	return 0
}

// parallelize applies the Xchg placement rules bottom-up:
//
//	HashAgg(chain(Scan)) ⇒ FinalAgg(Xchg(PartialAgg(chain(ParallelScan_w))…))
//	Sort(chain(Scan))    ⇒ XchgMerge(Sort(chain(ParallelScan_w))…)
//	TopN(chain(Scan))    ⇒ Limit(N, XchgMerge(TopN(chain(ParallelScan_w))…))
//	HashJoin(chain(Scan), build) ⇒ ParallelHashJoin(build; chain(ParallelScan_w)…)
//
// where the ParallelScan_w are morsel workers sharing one run-time queue.
func (pc *parCtx) parallelize(n physical.Node) physical.Node {
	ch := n.Children()
	newCh := make([]physical.Node, len(ch))
	for i, c := range ch {
		newCh[i] = pc.parallelize(c)
	}
	n = n.WithChildren(newCh)
	switch t := n.(type) {
	case *physical.HashAgg:
		return pc.parallelizeAgg(t)
	case *physical.Sort:
		p := pc.chainDegree(t.Child)
		if p == 0 {
			return n
		}
		kids := make([]physical.Node, p)
		for w, c := range pc.morselChains(t.Child, p) {
			kids[w] = &physical.Sort{Child: c, Keys: t.Keys}
		}
		return &physical.XchgMerge{Kids: kids, Keys: t.Keys}
	case *physical.TopN:
		p := pc.chainDegree(t.Child)
		if p == 0 {
			return n
		}
		kids := make([]physical.Node, p)
		for w, c := range pc.morselChains(t.Child, p) {
			kids[w] = &physical.TopN{Child: c, Keys: t.Keys, N: t.N}
		}
		// Each worker keeps its local top N; the merge is globally sorted,
		// so a final Limit restores the exact top N.
		return &physical.Limit{Child: &physical.XchgMerge{Kids: kids, Keys: t.Keys}, N: int64(t.N)}
	case *physical.HashJoin:
		p := pc.chainDegree(t.Left)
		if p == 0 {
			return n
		}
		return &physical.ParallelHashJoin{
			Build:        t.Right,
			Probes:       pc.morselChains(t.Left, p),
			Type:         t.Type,
			LeftKeys:     t.LeftKeys,
			RightKeys:    t.RightKeys,
			LeftKeyNull:  t.LeftKeyNull,
			RightKeyNull: t.RightKeyNull,
			WithMatch:    t.WithMatch,
		}
	}
	return n
}

// parallelizeAgg splits HashAgg-over-scan-chain pipelines into P partial
// pipelines over morsel workers, exchanged into a final aggregate.
func (pc *parCtx) parallelizeAgg(agg *physical.HashAgg) physical.Node {
	p := pc.chainDegree(agg.Child)
	if p == 0 {
		return agg
	}
	base := len(agg.GroupCols)
	// Partial aggregates per worker. Rows an aggregate skips stay skipped:
	// each indicator (or none) has one partial count of the rows it lets
	// through, which is a COUNT's partial, an AVG's divisor, and the mask of
	// a MIN or MAX. A worker that folded none of a group's rows into a MIN or
	// MAX emits the unseen zero value, and its count, 0, hides it. A grouped
	// partial emits a group only after folding one of its rows, so only a
	// MIN or MAX that skips rows needs the mask there; an ungrouped partial
	// emits its one row over an empty partition too, so there every MIN and
	// MAX takes it. AVG sums in float64, as the serial AVG does.
	var partials []exec.AggSpec
	addPartial := func(a exec.AggSpec) int {
		partials = append(partials, a)
		return base + len(partials) - 1
	}
	counts := map[int]int{} // indicator column (-1: none) → its partial count
	countOf := func(a exec.AggSpec) int {
		c, ok := counts[a.IndCol()]
		if !ok {
			c = addPartial(exec.AggSpec{Fn: exec.AggCount, Col: -1}.WithInd(a.IndCol()))
			counts[a.IndCol()] = c
		}
		return c
	}
	type split struct{ val, cnt int } // partial outputs; cnt -1 when unread
	splits := make([]split, len(agg.Aggs))
	for i, a := range agg.Aggs {
		switch a.Fn {
		case exec.AggCount:
			splits[i] = split{countOf(a), -1}
		case exec.AggSum:
			splits[i] = split{addPartial(a), -1}
		case exec.AggMin, exec.AggMax:
			splits[i] = split{addPartial(a), -1}
			if a.IndCol() >= 0 || base == 0 {
				splits[i].cnt = countOf(a)
			}
		case exec.AggAvg:
			sum := a
			sum.Fn = exec.AggSumFloat
			splits[i] = split{addPartial(sum), countOf(a)}
		default:
			return agg // unknown aggregate: stay serial
		}
	}
	names := make([]string, base+len(partials))
	for i := range names {
		names[i] = fmt.Sprintf("$p%d", i)
	}
	kids := make([]physical.Node, p)
	for w, chain := range pc.morselChains(agg.Child, p) {
		kids[w] = &physical.HashAgg{Child: chain, GroupCols: agg.GroupCols,
			Aggs: partials, Names: names}
	}
	var merged physical.Node = &physical.Xchg{Kids: kids}
	// The final MIN and MAX skip the partials whose count is 0: a projection
	// passes the partials through and adds each such count's test.
	pass := &physical.Project{Child: merged}
	for i, c := range merged.Schema().Cols {
		pass.Exprs, pass.Names = append(pass.Exprs, expr.Col(i, c.Name, c.Type)), append(pass.Names, c.Name)
	}
	empty := map[int]int{-1: -1} // partial count → its "= 0" column; no count, no mask
	for i, a := range agg.Aggs {
		c := splits[i].cnt
		if _, ok := empty[c]; ok || (a.Fn != exec.AggMin && a.Fn != exec.AggMax) {
			continue
		}
		empty[c] = len(pass.Exprs)
		pass.Exprs = append(pass.Exprs, expr.NewCall("=", expr.Col(c, names[c], types.Int64), expr.CInt(0)))
		pass.Names = append(pass.Names, fmt.Sprintf("$e%d", c))
	}
	if len(empty) > 1 {
		merged = pass
	}
	// Final aggregate regroups by the partial group outputs; AVG sums its
	// partial sums and counts. A partial summed twice (a COUNT and an AVG's
	// divisor) is summed once, and only AVG needs a projection after it.
	var finals []exec.AggSpec
	finalIdx := map[exec.AggSpec]int{}
	finalOf := func(a exec.AggSpec) int {
		f, ok := finalIdx[a]
		if !ok {
			finals = append(finals, a)
			f = base + len(finals) - 1
			finalIdx[a] = f
		}
		return f
	}
	outs := make([]split, len(agg.Aggs)) // final outputs; cnt -1 but for AVG
	avg := false
	for i, a := range agg.Aggs {
		s := splits[i]
		switch a.Fn {
		case exec.AggCount, exec.AggSum:
			outs[i] = split{finalOf(exec.AggSpec{Fn: exec.AggSum, Col: s.val}), -1}
		case exec.AggMin, exec.AggMax:
			outs[i] = split{finalOf(exec.AggSpec{Fn: a.Fn, Col: s.val}.WithInd(empty[s.cnt])), -1}
		case exec.AggAvg:
			outs[i] = split{finalOf(exec.AggSpec{Fn: exec.AggSum, Col: s.val}), finalOf(exec.AggSpec{Fn: exec.AggSum, Col: s.cnt})}
			avg = true
		}
	}
	final := &physical.HashAgg{Child: merged, GroupCols: identity(base), Aggs: finals, Names: agg.Names}
	if !avg && len(finals) == len(agg.Aggs) {
		return final
	}
	final.Names = make([]string, base+len(finals))
	for i := range final.Names {
		final.Names[i] = fmt.Sprintf("$f%d", i)
	}
	// Post-projection: restore output order and compute AVG = sum/cnt.
	fs := final.Schema()
	col := func(i int) expr.Expr { return expr.Col(i, fs.Cols[i].Name, fs.Cols[i].Type) }
	var exprs []expr.Expr
	for i := range agg.GroupCols {
		exprs = append(exprs, col(i))
	}
	for _, o := range outs {
		if o.cnt < 0 {
			exprs = append(exprs, col(o.val))
			continue
		}
		sumE := expr.Promote(col(o.val), types.KindFloat64)
		cntE := expr.Promote(col(o.cnt), types.KindFloat64)
		exprs = append(exprs, expr.NewCall("if",
			expr.NewCall(">", cntE, expr.CFloat(0)),
			expr.NewCall("/", sumE, expr.NewCall("max2", cntE, expr.CFloat(1))),
			expr.CFloat(0)))
	}
	return &physical.Project{Child: final, Exprs: exprs, Names: agg.Names}
}

// scanOfChain returns the serial vectorwise Scan at the bottom of a
// Select/Project chain, or nil.
func scanOfChain(n physical.Node) *physical.Scan {
	switch t := n.(type) {
	case *physical.Scan:
		if t.Spec.Structure != "vectorwise" {
			return nil
		}
		return t
	case *physical.Select:
		return scanOfChain(t.Child)
	case *physical.Project:
		return scanOfChain(t.Child)
	}
	return nil
}

// cloneChainMorsel copies a chain, turning its scan into worker w of the
// queue q.
func cloneChainMorsel(n physical.Node, q *physical.ScanQueue, w int) physical.Node {
	if s, ok := n.(*physical.Scan); ok {
		return &physical.ParallelScan{ScanCols: s.ScanCols, Queue: q, Worker: w}
	}
	return n.WithChildren([]physical.Node{cloneChainMorsel(n.Children()[0], q, w)})
}
