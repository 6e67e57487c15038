package physical

import (
	"fmt"
	"time"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/rowengine"
)

// Env supplies the runtime resources instantiation needs: storage
// handles and transactional snapshots. The engine's per-query session
// implements it; tests can stub it.
type Env interface {
	// Heap returns a heap table's storage.
	Heap(table string) (*rowengine.HeapTable, error)
	// MorselSource returns the run-time view of a scan of a vectorwise
	// table's snapshot by the given number of workers: row-group morsels plus
	// per-worker scanners when the snapshot is delta-free, or a serial
	// fallback stream otherwise. Called at operator Open time, once the
	// vector size is known. filters carry sargable bounds for min/max block
	// skipping; the provider must apply them only on delta-free scans (PDT
	// merging is positional, so every stable row must flow) — results stay
	// exact either way because the plan keeps the residual Select.
	MorselSource(table string, cols []int, vecSize, workers int, filters []colstore.RangeFilter) (exec.MorselSource, error)
}

// morselScan builds one worker of a scan over the env's morsel source;
// workers sharing key share the source and its queue.
func morselScan(env Env, c *ScanCols, key any, worker, workers int, label string) *exec.MorselScan {
	table, idxs, filters := c.Spec.Table, c.ColIdxs, c.Filters()
	return exec.NewMorselScan(c.ColKinds, key, worker, workers, label,
		func(vecSize int) (exec.MorselSource, error) {
			return env.MorselSource(table, idxs, vecSize, workers, filters)
		})
}

// Instance is an instantiated plan: the kernel operator tree plus the
// profiling shells aligned with the physical nodes that produced them.
type Instance struct {
	// Root is the operator to execute.
	Root exec.Operator
	// Plan is the tree the instance was built from.
	Plan Node

	prof map[Node]*exec.Profiled
}

// Instantiate turns a built plan into kernel operators, wrapping every
// operator in a profiling shell (counters stay off unless the execution
// context enables them).
func Instantiate(n Node, env Env) (*Instance, error) {
	inst := &Instance{Plan: n, prof: map[Node]*exec.Profiled{}}
	root, err := inst.build(n, env)
	if err != nil {
		return nil, err
	}
	inst.Root = root
	return inst, nil
}

func (inst *Instance) build(n Node, env Env) (exec.Operator, error) {
	children := n.Children()
	kids := make([]exec.Operator, len(children))
	for i, c := range children {
		op, err := inst.build(c, env)
		if err != nil {
			return nil, err
		}
		kids[i] = op
	}
	var op exec.Operator
	switch t := n.(type) {
	case *Scan:
		// A serial scan is a morsel scan of one worker, keyed by its node.
		scan := morselScan(env, &t.ScanCols, t, 0, 1, "Scan")
		scan.RID = t.Spec.RID
		op = scan
	case *ParallelScan:
		// The Queue pointer doubles as the shared-state key: sibling workers
		// built from the same physical spec join the same morsel queue.
		op = morselScan(env, &t.ScanCols, t.Queue, t.Worker, t.Queue.Workers, "ParallelScan")
	case *HeapScan:
		h, err := env.Heap(t.Spec.Table)
		if err != nil {
			return nil, err
		}
		op = newHeapScan(h, t.Logical, t.ColIdxs, Kinds(t), t.Spec.RID)
	case *Values:
		op = exec.NewValues(t.Out, t.Rows)
	case *Select:
		op = exec.NewSelect(kids[0], t.Pred)
	case *Project:
		op = exec.NewProject(kids[0], t.Exprs)
	case *HashAgg:
		agg, err := exec.NewHashAgg(kids[0], t.GroupCols, t.Aggs)
		if err != nil {
			return nil, err
		}
		op = agg
	case *HashJoin:
		hj := exec.NewHashJoin(kids[0], kids[1], t.LeftKeys, t.RightKeys, t.Type)
		hj.LeftKeyNull = t.LeftKeyNull
		hj.RightKeyNull = t.RightKeyNull
		op = hj
	case *ParallelHashJoin:
		op = exec.NewParallelHashJoin(kids[0], kids[1:], t.LeftKeys, t.RightKeys,
			t.Type, t.LeftKeyNull, t.RightKeyNull)
	case *Sort:
		op = exec.NewSort(kids[0], t.Keys)
	case *TopN:
		op = exec.NewTopN(kids[0], t.Keys, t.N)
	case *Limit:
		op = exec.NewLimit(kids[0], t.Offset, t.N)
	case *Xchg:
		op = exec.NewXchgUnion(kids...)
	case *XchgMerge:
		op = exec.NewXchgMerge(t.Keys, kids...)
	default:
		return nil, fmt.Errorf("physical: cannot instantiate %s", n.Op())
	}
	p := exec.NewProfiled(n.Op(), op)
	inst.prof[n] = p
	return p, nil
}

// Stats returns the profile counters recorded for a plan node (zero-valued
// unless the query ran with profiling enabled).
func (inst *Instance) Stats(n Node) exec.OpStats {
	if p, ok := inst.prof[n]; ok {
		return p.Stats()
	}
	return exec.OpStats{}
}

// RenderProfile renders the plan annotated with each operator's
// counters — the per-operator breakdown PROFILE prints. Scans report the
// encoded bytes they decoded and how many of the table's physical columns
// they read (decoded=B bytes cols=k/N); those that saw block skipping
// additionally report skipped=N/M groups, and those whose filters ran on
// dictionary codes the rows the codes dropped (dropped=N rows on codes);
// morsel-scan workers report how many morsels they claimed and how many
// were stolen from siblings.
func (inst *Instance) RenderProfile() string {
	return render(inst.Plan, func(n Node) string {
		st := inst.Stats(n)
		scan := ""
		if sc, ok := n.(interface{ scanCols() *ScanCols }); ok {
			c := sc.scanCols()
			scan = fmt.Sprintf(" decoded=%d bytes cols=%d/%d", st.DecodedBytes, len(c.ColIdxs), c.TableCols)
		}
		if st.TotalGroups > 0 {
			scan += fmt.Sprintf(" skipped=%d/%d groups", st.SkippedGroups, st.TotalGroups)
			if st.SkippedBytes > 0 {
				scan += fmt.Sprintf(" (%d bytes)", st.SkippedBytes)
			}
		}
		if st.CodeDropped > 0 {
			scan += fmt.Sprintf(" dropped=%d rows on codes", st.CodeDropped)
		}
		morsels := ""
		if st.Morsels > 0 {
			morsels = fmt.Sprintf(" morsels=%d", st.Morsels)
			if st.MorselSteals > 0 {
				morsels += fmt.Sprintf(" (stolen=%d)", st.MorselSteals)
			}
		}
		return fmt.Sprintf("  [rows=%d batches=%d time=%v%s%s]",
			st.Rows, st.Batches, time.Duration(st.Nanos).Round(time.Microsecond), scan, morsels)
	})
}
