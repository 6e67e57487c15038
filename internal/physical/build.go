package physical

import (
	"fmt"

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

// Build is the last pass over a rewritten (decomposed) tree: it resolves
// every scan against the catalog — column names to storage positions and
// kinds, a heap table's scan to a HeapScan — and checks that each aggregate
// applies to its input's kind. After Build, instantiation needs no name
// lookups and no schema reasoning.
func Build(n Node, cat Catalog) (Node, error) {
	switch t := n.(type) {
	case *Scan:
		sc, info, err := resolveScan(t.ScanCols, cat)
		if err != nil {
			return nil, err
		}
		if info.Structure == "heap" {
			return &HeapScan{ScanCols: sc, Logical: info.Logical}, nil
		}
		return &Scan{ScanCols: sc}, nil
	case *ParallelScan:
		if t.Spec.RID {
			return nil, fmt.Errorf("physical: scan of %s projects row ids; only a serial scan can", t.Spec.Table)
		}
		sc, _, err := resolveScan(t.ScanCols, cat)
		if err != nil {
			return nil, err
		}
		return &ParallelScan{ScanCols: sc, Queue: t.Queue, Worker: t.Worker}, nil
	}
	ch := n.Children()
	if len(ch) == 0 {
		return n, nil
	}
	kids := make([]Node, len(ch))
	for i, c := range ch {
		k, err := Build(c, cat)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	if a, ok := n.(*HashAgg); ok {
		in := Kinds(kids[0])
		for _, sp := range a.Aggs {
			if _, err := sp.ResultKind(in); err != nil {
				return nil, err
			}
		}
	}
	return n.WithChildren(kids), nil
}

// resolveScan finds a scan's stored columns in the table's storage layout.
// Every range must name a column the scan reads.
func resolveScan(sc ScanCols, cat Catalog) (ScanCols, *TableInfo, error) {
	info, err := cat.PhysicalTable(sc.Spec.Table)
	if err != nil {
		return sc, nil, err
	}
	cols := sc.cols()
	sc.TableCols = info.Physical.Len()
	sc.ColIdxs = make([]int, len(cols))
	sc.ColKinds = make([]types.Kind, len(cols))
	for i, name := range cols {
		idx := info.Physical.Find(name)
		if idx < 0 {
			return sc, nil, fmt.Errorf("physical: table %s has no column %q", sc.Spec.Table, name)
		}
		sc.ColIdxs[i] = idx
		sc.ColKinds[i] = info.Physical.Cols[idx].Type.Kind
	}
	for _, r := range sc.Spec.Ranges {
		if r.Col < 0 || r.Col >= sc.Spec.Cols.Len() || sc.rangeCol(r) < 0 {
			return sc, nil, fmt.Errorf("physical: scan of %s has a range on column %d, which it does not read",
				sc.Spec.Table, r.Col)
		}
	}
	return sc, info, nil
}
