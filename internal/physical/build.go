package physical

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/exec"
	"vectorwise/internal/types"
)

// TableInfo is what Build needs to know about a table: its access
// structure and the physical (decomposed) column layout scans read.
type TableInfo struct {
	// Structure is the table's access structure: "vectorwise" or "heap".
	Structure string
	// Logical is the table's declared schema (heap rows are stored in it).
	Logical *types.Schema
	// Physical is the decomposed storage layout (values then indicators).
	Physical *types.Schema
}

// Catalog resolves tables at plan-build time. The engine's DB implements
// it; tests can supply fixtures.
type Catalog interface {
	PhysicalTable(name string) (*TableInfo, error)
}

// Build lowers rewritten (post-decomposition) algebra into the typed
// physical DAG, resolving every column name to a storage position against
// the catalog. After Build, instantiation needs no name lookups and no
// schema reasoning — only the registry's factories.
func Build(n algebra.Node, cat Catalog) (Node, error) {
	b := &builder{cat: cat, queues: map[int]*ScanQueue{}}
	return b.build(n)
}

// builder carries per-plan lowering state: the catalog plus the morsel
// queues already materialized, keyed by the algebra MorselID, so sibling
// worker scans of one queue share a single *ScanQueue spec.
type builder struct {
	cat    Catalog
	queues map[int]*ScanQueue
}

func (b *builder) build(n algebra.Node) (Node, error) {
	switch t := n.(type) {
	case *algebra.Scan:
		return b.buildScan(t)
	case *algebra.Values:
		return &Values{Schema: t.Out, Rows: t.Rows}, nil
	case *algebra.Select:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		return &Select{Child: child, Pred: t.Pred}, nil
	case *algebra.Project:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		return &Project{Child: child, Exprs: t.Exprs, Names: t.Names}, nil
	case *algebra.Aggr:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		aggs := make([]exec.AggSpec, len(t.Aggs))
		for i, a := range t.Aggs {
			fn, err := aggFn(a.Fn)
			if err != nil {
				return nil, err
			}
			aggs[i] = exec.AggSpec{Fn: fn, Col: a.Col}
		}
		out, err := aggKinds(child.Kinds(), t.GroupCols, aggs)
		if err != nil {
			return nil, err
		}
		return &HashAgg{Child: child, GroupCols: t.GroupCols, Aggs: aggs, OutKinds: out}, nil
	case *algebra.HashJoin:
		left, err := b.build(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.build(t.Right)
		if err != nil {
			return nil, err
		}
		jt, err := joinType(t.Kind)
		if err != nil {
			return nil, err
		}
		return &HashJoin{Left: left, Right: right, Type: jt,
			LeftKeys: t.LeftKeys, RightKeys: t.RightKeys,
			LeftKeyNull: t.LeftKeyNull, RightKeyNull: t.RightKeyNull,
			OutKinds: joinKinds(left.Kinds(), right.Kinds(), jt)}, nil
	case *algebra.ParallelHashJoin:
		build, err := b.build(t.Build)
		if err != nil {
			return nil, err
		}
		probes, err := b.buildKids(t.Probes)
		if err != nil {
			return nil, err
		}
		jt, err := joinType(t.Kind)
		if err != nil {
			return nil, err
		}
		return &ParallelHashJoin{Build: build, Probes: probes, Type: jt,
			LeftKeys: t.LeftKeys, RightKeys: t.RightKeys,
			LeftKeyNull: t.LeftKeyNull, RightKeyNull: t.RightKeyNull,
			OutKinds: joinKinds(probes[0].Kinds(), build.Kinds(), jt)}, nil
	case *algebra.Sort:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		return &Sort{Child: child, Keys: sortKeys(t.Keys)}, nil
	case *algebra.TopN:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		return &TopN{Child: child, Keys: sortKeys(t.Keys), N: int(t.N)}, nil
	case *algebra.Limit:
		child, err := b.build(t.Child)
		if err != nil {
			return nil, err
		}
		return &Limit{Child: child, Offset: t.Offset, N: t.N}, nil
	case *algebra.UnionAll:
		kids, err := b.buildKids(t.Kids)
		if err != nil {
			return nil, err
		}
		return &Union{Kids: kids}, nil
	case *algebra.XchgUnion:
		kids, err := b.buildKids(t.Kids)
		if err != nil {
			return nil, err
		}
		return &Xchg{Kids: kids, Degree: len(kids)}, nil
	case *algebra.XchgMerge:
		kids, err := b.buildKids(t.Kids)
		if err != nil {
			return nil, err
		}
		return &XchgMerge{Kids: kids, Keys: sortKeys(t.Keys)}, nil
	}
	return nil, fmt.Errorf("physical: cannot build %T", n)
}

func (b *builder) buildKids(alg []algebra.Node) ([]Node, error) {
	kids := make([]Node, len(alg))
	for i, k := range alg {
		c, err := b.build(k)
		if err != nil {
			return nil, err
		}
		kids[i] = c
	}
	return kids, nil
}

// buildScan resolves a scan's physical column names against the table's
// storage layout, emitting a HeapScan for classic tables and a ParallelScan
// worker for morsel-stamped scans (sibling workers share one *ScanQueue spec,
// resolved through the builder's queue map). A RID scan must be serial.
func (b *builder) buildScan(t *algebra.Scan) (Node, error) {
	info, err := b.cat.PhysicalTable(t.Spec.Table)
	if err != nil {
		return nil, err
	}
	sc := ScanCols{Spec: t.Spec, Cols: t.Out.Names(), TableCols: info.Physical.Len()}
	if t.Spec.RID {
		if t.Morsels > 0 {
			return nil, fmt.Errorf("physical: scan of %s projects row ids; only a serial scan can", t.Spec.Table)
		}
		// The trailing row-id column is not stored: the scan operator
		// produces it itself.
		sc.Cols = sc.Cols[:len(sc.Cols)-1]
	}
	sc.ColIdxs = make([]int, len(sc.Cols))
	sc.ColKinds = make([]types.Kind, len(sc.Cols))
	for i, name := range sc.Cols {
		idx := info.Physical.Find(name)
		if idx < 0 {
			return nil, fmt.Errorf("physical: table %s has no column %q", t.Spec.Table, name)
		}
		sc.ColIdxs[i] = idx
		sc.ColKinds[i] = info.Physical.Cols[idx].Type.Kind
	}
	for _, r := range t.Spec.Ranges {
		if r.Col < 0 || r.Col >= t.Spec.Cols.Len() || sc.rangeCol(r) < 0 {
			return nil, fmt.Errorf("physical: scan of %s has a range on column %d, which it does not read",
				t.Spec.Table, r.Col)
		}
	}
	if info.Structure == "heap" {
		return &HeapScan{ScanCols: sc, Logical: info.Logical}, nil
	}
	if t.Morsels > 0 {
		q := b.queues[t.MorselID]
		if q == nil {
			q = &ScanQueue{ID: t.MorselID, Workers: t.Morsels}
			b.queues[t.MorselID] = q
		}
		return &ParallelScan{ScanCols: sc, Queue: q, Worker: t.Worker}, nil
	}
	return &Scan{ScanCols: sc}, nil
}

func aggFn(fn string) (exec.AggFn, error) {
	switch fn {
	case "count":
		return exec.AggCount, nil
	case "sum":
		return exec.AggSum, nil
	case "min":
		return exec.AggMin, nil
	case "max":
		return exec.AggMax, nil
	case "avg":
		return exec.AggAvg, nil
	case "count_false":
		return exec.AggCountFalse, nil
	}
	return 0, fmt.Errorf("physical: aggregate %q", fn)
}

func aggKinds(in []types.Kind, groupCols []int, aggs []exec.AggSpec) ([]types.Kind, error) {
	out := make([]types.Kind, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		out = append(out, in[g])
	}
	for _, a := range aggs {
		k, err := a.ResultKind(in)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func joinType(k algebra.JoinKind) (exec.JoinType, error) {
	switch k {
	case algebra.Inner:
		return exec.Inner, nil
	case algebra.LeftOuter:
		return exec.LeftOuter, nil
	case algebra.Semi:
		return exec.Semi, nil
	case algebra.Anti:
		return exec.Anti, nil
	case algebra.AntiNullAware:
		return exec.AntiNullAware, nil
	}
	return 0, fmt.Errorf("physical: join kind %v", k)
}

// joinKinds mirrors the kernel's output layout per join type.
func joinKinds(left, right []types.Kind, jt exec.JoinType) []types.Kind {
	switch jt {
	case exec.Inner:
		return append(append([]types.Kind{}, left...), right...)
	case exec.LeftOuter:
		out := append(append([]types.Kind{}, left...), right...)
		return append(out, types.KindBool)
	default:
		return append([]types.Kind{}, left...)
	}
}

func sortKeys(keys []algebra.SortKey) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}
