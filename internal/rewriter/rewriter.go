// Package rewriter is the Vectorwise rewriter of Figure 1: a rule-based
// transformation layer over the X100 algebra, sitting between the cross
// compiler and the execution kernel. The paper credits it with most of the
// "filling functionality holes at a higher level" work; this implementation
// covers the passes the paper names:
//
//   - constant folding and expression simplification,
//   - function lowering — implementing SQL functions as combinations of
//     existing kernel primitives instead of new kernel code (claim C7),
//   - NULL decomposition — rewriting every NULLable column into a value
//     column plus a BOOL indicator column so the kernel stays NULL-
//     oblivious (claim C6), including the anti-join NULL
//     intricacies of claim C10, then dropping from each scan the value
//     columns no operator reads (a NULLable column counted or tested for
//     NULL scans its indicator only),
//   - the Volcano-style parallelizer — splitting pipelines across cores
//     with exchange operators (claim C9). Parallel scans are
//     morsel-driven: the rewriter clones a scan chain into P workers that
//     all reference one run-time work queue of row-group morsels
//     (identified by Scan.MorselID), so work distribution happens at Open,
//     not at compile — skew self-balances by work stealing, and deltas
//     arriving between compile and run only change what the queue serves.
//     Placement rules: Aggr over a scan chain becomes partial aggregates
//     exchanged (XchgUnion) into a final aggregate; Sort and TopN become
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

	"vectorwise/internal/algebra"
	"vectorwise/internal/expr"
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
	// LowerFuncs replaces kernel-native functions with equivalent
	// combinations of other primitives.
	LowerFuncs bool
	// SkipDecompose is for tests that feed pre-physical plans.
	SkipDecompose bool
}

// Result is the rewritten physical algebra plus the mapping from the
// query's logical output columns to physical (value, indicator) pairs.
type Result struct {
	Node   algebra.Node
	ColMap ColMap
	// Logical is the pre-decomposition output schema (for result headers).
	Logical *types.Schema
}

// Rewrite runs the full pipeline.
func Rewrite(n algebra.Node, opts Options) (*Result, error) {
	logical := n.Schema().Clone()
	n = foldNode(n)
	if opts.LowerFuncs {
		n = lowerFuncs(n)
	}
	var cm ColMap
	if opts.SkipDecompose {
		cm = identityMap(n.Schema())
	} else {
		var err error
		n, cm, err = decompose(n)
		if err != nil {
			return nil, err
		}
		n = pruneDecomposed(n)
	}
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

func identityMap(s *types.Schema) ColMap {
	cm := ColMap{Val: make([]int, s.Len()), Ind: make([]int, s.Len())}
	for i := range s.Cols {
		cm.Val[i] = i
		cm.Ind[i] = -1
	}
	return cm
}

// --- constant folding ---

func foldNode(n algebra.Node) algebra.Node {
	ch := n.Children()
	newCh := make([]algebra.Node, len(ch))
	for i, c := range ch {
		newCh[i] = foldNode(c)
	}
	n = n.WithChildren(newCh)
	switch t := n.(type) {
	case *algebra.Select:
		return &algebra.Select{Child: t.Child, Pred: expr.FoldConstants(t.Pred)}
	case *algebra.Project:
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = expr.FoldConstants(e)
		}
		return &algebra.Project{Child: t.Child, Exprs: exprs, Names: t.Names}
	}
	return n
}

// --- function lowering ---

// lowerFuncs rewrites selected kernel-native calls into combinations of
// other primitives: the "implement it in the rewriter" route the paper
// describes for quickly filling function gaps.
func lowerFuncs(n algebra.Node) algebra.Node {
	lower := func(e expr.Expr) expr.Expr {
		return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
			c, ok := x.(*expr.Call)
			if !ok {
				return x
			}
			switch c.Fn {
			case "trim":
				// trim(s) → ltrim(rtrim(s))
				return expr.NewCall("ltrim", expr.NewCall("rtrim", c.Args[0]))
			case "between":
				// between(x, lo, hi) → x >= lo AND x <= hi
				return expr.NewCall("and",
					expr.NewCall(">=", c.Args[0], c.Args[1]),
					expr.NewCall("<=", c.Args[0], c.Args[2]))
			case "abs":
				// abs(x) → max2(x, -x)
				return expr.NewCall("max2", c.Args[0], expr.NewCall("neg", c.Args[0]))
			case "sign":
				// sign(x) → if(x > 0, 1, if(x < 0, -1, 0)), typed per input
				k := c.Args[0].Type().Kind
				one, minus, zero := litOf(k, 1), litOf(k, -1), litOf(k, 0)
				return expr.NewCall("if",
					gtZero(c.Args[0], k), one,
					expr.NewCall("if", ltZero(c.Args[0], k), minus, zero))
			}
			return x
		})
	}
	ch := n.Children()
	newCh := make([]algebra.Node, len(ch))
	for i, c := range ch {
		newCh[i] = lowerFuncs(c)
	}
	n = n.WithChildren(newCh)
	switch t := n.(type) {
	case *algebra.Select:
		return &algebra.Select{Child: t.Child, Pred: lower(t.Pred)}
	case *algebra.Project:
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = lower(e)
		}
		return &algebra.Project{Child: t.Child, Exprs: exprs, Names: t.Names}
	}
	return n
}

func litOf(k types.Kind, v int64) expr.Expr {
	switch k {
	case types.KindInt32:
		return expr.CInt32(int32(v))
	case types.KindFloat64:
		return expr.CFloat(float64(v))
	default:
		return expr.CInt(v)
	}
}

func gtZero(e expr.Expr, k types.Kind) expr.Expr {
	return expr.NewCall(">", e, litOf(k, 0))
}

func ltZero(e expr.Expr, k types.Kind) expr.Expr {
	return expr.NewCall("<", e, litOf(k, 0))
}

// --- parallelizer (claim C9) ---

// parCtx carries parallelizer state: the options plus a counter handing out
// morsel-queue IDs, one per parallelized scan chain (the P worker clones of
// one chain share an ID; distinct chains get distinct queues).
type parCtx struct {
	opts   Options
	nextID int
}

// degree picks the worker count for a scan: Options.Parallel capped by the
// row-group morsel count the scan can actually touch.
func (pc *parCtx) degree(scan *algebra.Scan) int {
	p := pc.opts.Parallel
	if pc.opts.GroupsHint != nil {
		if g := pc.opts.GroupsHint(scan.Spec); g >= 0 && g < p {
			p = g
		}
	}
	return p
}

// morselChains clones a scan chain into p morsel workers sharing one queue.
func (pc *parCtx) morselChains(chain algebra.Node, p int) []algebra.Node {
	id := pc.nextID
	pc.nextID++
	out := make([]algebra.Node, p)
	for w := 0; w < p; w++ {
		out[w] = cloneChainMorsel(chain, w, p, id)
	}
	return out
}

// chainDegree returns the scan chain's parallel degree, or 0 when the chain
// must stay serial (no scan, already morselized, degree cap ≤ 1).
func (pc *parCtx) chainDegree(chain algebra.Node) int {
	scan := scanOfChain(chain)
	if scan == nil || scan.Morsels > 0 {
		return 0
	}
	if p := pc.degree(scan); p > 1 {
		return p
	}
	return 0
}

// parallelize applies the Xchg placement rules bottom-up:
//
//	Aggr(chain(Scan))  ⇒  FinalAggr(XchgUnion(PartialAggr(chain(Scan_w))…))
//	Sort(chain(Scan))  ⇒  XchgMerge(Sort(chain(Scan_w))…)
//	TopN(chain(Scan))  ⇒  Limit(N, XchgMerge(TopN(chain(Scan_w))…))
//	HashJoin(chain(Scan), build) ⇒ ParallelHashJoin(build; chain(Scan_w)…)
//
// where the Scan_w are morsel-worker clones sharing one run-time queue.
func (pc *parCtx) parallelize(n algebra.Node) algebra.Node {
	ch := n.Children()
	newCh := make([]algebra.Node, len(ch))
	for i, c := range ch {
		newCh[i] = pc.parallelize(c)
	}
	n = n.WithChildren(newCh)
	switch t := n.(type) {
	case *algebra.Aggr:
		return pc.parallelizeAggr(t)
	case *algebra.Sort:
		p := pc.chainDegree(t.Child)
		if p == 0 {
			return n
		}
		kids := make([]algebra.Node, p)
		for w, c := range pc.morselChains(t.Child, p) {
			kids[w] = &algebra.Sort{Child: c, Keys: t.Keys}
		}
		return &algebra.XchgMerge{Kids: kids, Keys: t.Keys}
	case *algebra.TopN:
		p := pc.chainDegree(t.Child)
		if p == 0 {
			return n
		}
		kids := make([]algebra.Node, p)
		for w, c := range pc.morselChains(t.Child, p) {
			kids[w] = &algebra.TopN{Child: c, Keys: t.Keys, N: t.N}
		}
		// Each worker keeps its local top N; the merge is globally sorted,
		// so a final Limit restores the exact top N.
		return &algebra.Limit{Child: &algebra.XchgMerge{Kids: kids, Keys: t.Keys}, N: t.N}
	case *algebra.HashJoin:
		p := pc.chainDegree(t.Left)
		if p == 0 {
			return n
		}
		return &algebra.ParallelHashJoin{
			Build:        t.Right,
			Probes:       pc.morselChains(t.Left, p),
			Kind:         t.Kind,
			LeftKeys:     t.LeftKeys,
			RightKeys:    t.RightKeys,
			LeftKeyNull:  t.LeftKeyNull,
			RightKeyNull: t.RightKeyNull,
			WithMatch:    t.WithMatch,
		}
	}
	return n
}

// parallelizeAggr splits Aggr-over-scan-chain pipelines into P partial
// pipelines over morsel workers, exchanged into a final aggregate.
func (pc *parCtx) parallelizeAggr(agg *algebra.Aggr) algebra.Node {
	var n algebra.Node = agg
	p := pc.chainDegree(agg.Child)
	if p == 0 {
		return n
	}
	// Partial aggregates per worker. AVG splits into SUM+COUNT.
	type finalSpec struct {
		fn  string
		col int // partial output column
	}
	var partialAggs []algebra.AggItem
	var finals []finalSpec
	avgSum := map[int]int{} // agg idx → partial col of its sum
	avgCnt := map[int]int{} // agg idx → partial col of its count
	base := len(agg.GroupCols)
	for i, a := range agg.Aggs {
		switch a.Fn {
		case "count", "count_false":
			finals = append(finals, finalSpec{fn: "sum", col: base + len(partialAggs)})
			partialAggs = append(partialAggs, a)
		case "sum", "min", "max":
			finals = append(finals, finalSpec{fn: a.Fn, col: base + len(partialAggs)})
			partialAggs = append(partialAggs, a)
		case "avg":
			avgSum[i] = base + len(partialAggs)
			partialAggs = append(partialAggs, algebra.AggItem{Fn: "sum", Col: a.Col})
			avgCnt[i] = base + len(partialAggs)
			partialAggs = append(partialAggs, algebra.AggItem{Fn: "count", Col: -1})
			finals = append(finals, finalSpec{fn: "avg", col: -1}) // placeholder
		default:
			return n // unknown aggregate: stay serial
		}
	}
	// An ungrouped aggregate emits one row even over an empty input (SQL
	// semantics), so a partition whose rows are all filtered away yields a
	// zero-valued partial whose MIN/MAX would poison the final combination.
	// Add a count(*) sentinel and drop empty partials before combining.
	// (Grouped partials simply emit no row for an empty partition.)
	sentinel := -1
	if base == 0 {
		for i, a := range partialAggs {
			if a.Fn == "count" && a.Col == -1 {
				sentinel = base + i // reuse an existing count(*) partial
				break
			}
		}
		if sentinel < 0 {
			sentinel = base + len(partialAggs)
			partialAggs = append(partialAggs, algebra.AggItem{Fn: "count", Col: -1})
		}
	}
	names := make([]string, base+len(partialAggs))
	for i := range names {
		names[i] = fmt.Sprintf("$p%d", i)
	}
	kids := make([]algebra.Node, p)
	for w, chain := range pc.morselChains(agg.Child, p) {
		kids[w] = &algebra.Aggr{Child: chain, GroupCols: agg.GroupCols,
			Aggs: partialAggs, Names: names}
	}
	var merged algebra.Node = &algebra.XchgUnion{Kids: kids}
	if sentinel >= 0 {
		merged = &algebra.Select{Child: merged,
			Pred: expr.NewCall(">", expr.Col(sentinel, "", types.Int64), expr.CInt(0))}
	}
	// Final aggregate regroups by the partial group outputs.
	finalGroups := make([]int, base)
	for i := range finalGroups {
		finalGroups[i] = i
	}
	var finalAggs []algebra.AggItem
	finalOutOfAgg := make([]int, len(agg.Aggs)) // agg idx → final agg output idx
	for i, a := range agg.Aggs {
		if a.Fn == "avg" {
			finalAggs = append(finalAggs, algebra.AggItem{Fn: "sum", Col: avgSum[i]})
			finalOutOfAgg[i] = len(finalAggs) - 1
			finalAggs = append(finalAggs, algebra.AggItem{Fn: "sum", Col: avgCnt[i]})
			continue
		}
		fs := finals[i] // finals is parallel to agg.Aggs
		finalAggs = append(finalAggs, algebra.AggItem{Fn: fs.fn, Col: fs.col})
		finalOutOfAgg[i] = len(finalAggs) - 1
	}
	fnames := make([]string, base+len(finalAggs))
	for i := range fnames {
		fnames[i] = fmt.Sprintf("$f%d", i)
	}
	final := &algebra.Aggr{Child: merged, GroupCols: finalGroups, Aggs: finalAggs, Names: fnames}
	// Post-projection: restore output order and compute AVG = sum/cnt.
	fs := final.Schema()
	var exprs []expr.Expr
	var onames []string
	for i := range agg.GroupCols {
		exprs = append(exprs, expr.Col(i, fs.Cols[i].Name, fs.Cols[i].Type))
		onames = append(onames, agg.Names[i])
	}
	for i, a := range agg.Aggs {
		if a.Fn == "avg" {
			sumIdx := base + finalOutOfAgg[i]
			cntIdx := sumIdx + 1
			sumE := expr.Promote(expr.Col(sumIdx, "", fs.Cols[sumIdx].Type.NotNull()), types.KindFloat64)
			cntE := expr.Promote(expr.Col(cntIdx, "", fs.Cols[cntIdx].Type.NotNull()), types.KindFloat64)
			div := expr.NewCall("if",
				expr.NewCall(">", cntE, expr.CFloat(0)),
				expr.NewCall("/", sumE, expr.NewCall("max2", cntE, expr.CFloat(1))),
				expr.CFloat(0))
			exprs = append(exprs, div)
		} else {
			idx := base + finalOutOfAgg[i]
			// COUNT partials sum to BIGINT; keep kinds aligned with the
			// serial plan (count stays BIGINT, min/max/sum keep kind).
			exprs = append(exprs, expr.Col(idx, "", fs.Cols[idx].Type))
		}
		onames = append(onames, agg.Names[base+i])
	}
	return &algebra.Project{Child: final, Exprs: exprs, Names: onames}
}

// scanOfChain returns the single Scan at the bottom of a Select/Project
// chain, or nil.
func scanOfChain(n algebra.Node) *algebra.Scan {
	switch t := n.(type) {
	case *algebra.Scan:
		if t.Spec.Structure != "vectorwise" {
			return nil
		}
		return t
	case *algebra.Select:
		return scanOfChain(t.Child)
	case *algebra.Project:
		return scanOfChain(t.Child)
	}
	return nil
}

// cloneChainMorsel copies a chain, stamping the scan as morsel worker w of
// a P-worker group sharing queue id.
func cloneChainMorsel(n algebra.Node, w, p, id int) algebra.Node {
	switch t := n.(type) {
	case *algebra.Scan:
		cp := *t
		cp.Worker = w
		cp.Morsels = p
		cp.MorselID = id
		return &cp
	case *algebra.Select:
		return &algebra.Select{Child: cloneChainMorsel(t.Child, w, p, id), Pred: t.Pred}
	case *algebra.Project:
		return &algebra.Project{Child: cloneChainMorsel(t.Child, w, p, id),
			Exprs: t.Exprs, Names: t.Names}
	}
	return n
}
