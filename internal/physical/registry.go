package physical

import (
	"fmt"
	"sort"
	"time"

	"vectorwise/internal/colstore"
	"vectorwise/internal/exec"
	"vectorwise/internal/rowengine"
)

// Env supplies the runtime resources operator factories need: storage
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

// Factory instantiates the kernel operator for one physical node; kids are
// the already-instantiated children, in Children() order.
type Factory func(n Node, env Env, kids []exec.Operator) (exec.Operator, error)

var registry = map[string]Factory{}

// Register binds an op name to its factory. New operators added in future
// PRs plug in here; duplicate registration panics (a wiring bug).
func Register(op string, f Factory) {
	if _, dup := registry[op]; dup {
		panic("physical: duplicate operator registration: " + op)
	}
	registry[op] = f
}

func init() {
	Register("Scan", func(n Node, env Env, _ []exec.Operator) (exec.Operator, error) {
		// A serial scan is a morsel scan of one worker, keyed by its node.
		s := n.(*Scan)
		scan := morselScan(env, &s.ScanCols, s, 0, 1, "Scan")
		scan.RID = s.Spec.RID
		return scan, nil
	})
	Register("ParallelScan", func(n Node, env Env, _ []exec.Operator) (exec.Operator, error) {
		// The Queue pointer doubles as the shared-state key: sibling workers
		// built from the same physical spec join the same morsel queue.
		s := n.(*ParallelScan)
		return morselScan(env, &s.ScanCols, s.Queue, s.Worker, s.Queue.Workers, "ParallelScan"), nil
	})
	Register("HeapScan", func(n Node, env Env, _ []exec.Operator) (exec.Operator, error) {
		s := n.(*HeapScan)
		h, err := env.Heap(s.Spec.Table)
		if err != nil {
			return nil, err
		}
		return newHeapScan(h, s.Logical, s.ColIdxs, s.Kinds(), s.Spec.RID), nil
	})
	Register("Values", func(n Node, _ Env, _ []exec.Operator) (exec.Operator, error) {
		v := n.(*Values)
		return exec.NewValues(v.Schema, v.Rows), nil
	})
	Register("Select", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewSelect(kids[0], n.(*Select).Pred), nil
	})
	Register("Project", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewProject(kids[0], n.(*Project).Exprs), nil
	})
	Register("HashAgg", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		a := n.(*HashAgg)
		return exec.NewHashAgg(kids[0], a.GroupCols, a.Aggs)
	})
	Register("HashJoin", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		j := n.(*HashJoin)
		hj := exec.NewHashJoin(kids[0], kids[1], j.LeftKeys, j.RightKeys, j.Type)
		hj.LeftKeyNull = j.LeftKeyNull
		hj.RightKeyNull = j.RightKeyNull
		return hj, nil
	})
	Register("Sort", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewSort(kids[0], n.(*Sort).Keys), nil
	})
	Register("TopN", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		t := n.(*TopN)
		return exec.NewTopN(kids[0], t.Keys, t.N), nil
	})
	Register("Limit", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		l := n.(*Limit)
		return exec.NewLimit(kids[0], l.Offset, l.N), nil
	})
	Register("Union", func(_ Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewUnion(kids...)
	})
	Register("Xchg", func(_ Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewXchgUnion(kids...), nil
	})
	Register("XchgMerge", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		return exec.NewXchgMerge(n.(*XchgMerge).Keys, kids...), nil
	})
	Register("ParallelHashJoin", func(n Node, _ Env, kids []exec.Operator) (exec.Operator, error) {
		j := n.(*ParallelHashJoin)
		return exec.NewParallelHashJoin(kids[0], kids[1:], j.LeftKeys, j.RightKeys,
			j.Type, j.LeftKeyNull, j.RightKeyNull), nil
	})
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
	// Plan is the physical DAG the instance was built from.
	Plan Node

	prof map[Node]*exec.Profiled
}

// Instantiate turns a physical DAG into kernel operators via the registry,
// wrapping every operator in a profiling shell (counters stay off unless
// the execution context enables them).
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
	f, ok := registry[n.Op()]
	if !ok {
		return nil, fmt.Errorf("physical: no factory registered for %s", n.Op())
	}
	op, err := f(n, env, kids)
	if err != nil {
		return nil, err
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

// RenderProfile renders the physical DAG annotated with each operator's
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

// RegisteredOps lists the registry's operator names, sorted (diagnostics,
// tests).
func RegisteredOps() []string {
	out := make([]string, 0, len(registry))
	for op := range registry {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
