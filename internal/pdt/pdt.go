// Package pdt implements Positional Delta Trees (Héman, Zukowski, Nes,
// Sidirourgos, Boncz; SIGMOD 2010): the differential update structure
// underneath Vectorwise transactions (paper claims C4 and "Transactions").
//
// A PDT records inserts, deletes and modifies against an immutable
// *stable* table image, keyed by position. Two position spaces exist:
//
//   - SID (stable ID): a row's position in the stable table,
//   - RID (row ID): a row's position in the current image (stable + PDT).
//
// The tree is a counted AVL ordered by image position; every subtree
// carries its insert/delete counts, so RID↔SID arithmetic is O(log d) for
// d deltas, and updates are O(log d) too. Scans merge the PDT with the
// stable stream positionally — no key lookups, which is exactly why the
// scheme is column-store friendly.
//
// PDTs layer: a transaction's private write-PDT sits on top of the shared
// read-PDT, whose image in turn overlays the stable table. Commit replays
// one layer's ops onto the layer below (see the txn package).
//
// A PDT is not locked: any number of goroutines may read a tree (Ops fills
// its cache under a lock of its own), but its owner must not change a tree
// while anybody reads it.
package pdt

import (
	"fmt"
	"sync"

	"vectorwise/internal/types"
)

// OpKind classifies a delta.
type OpKind uint8

// The delta kinds.
const (
	// OpIns is a row insertion anchored before stable row SID.
	OpIns OpKind = iota
	// OpDel deletes stable row SID.
	OpDel
	// OpMod modifies columns of stable row SID.
	OpMod
)

// Op is one delta in image order, as exposed by Ops() snapshots.
type Op struct {
	Kind OpKind
	SID  int64
	Row  []types.Value       // OpIns: the full new row
	Mods map[int]types.Value // OpMod: column → new value
}

type node struct {
	kind OpKind
	sid  int64
	row  []types.Value
	mods map[int]types.Value

	left, right *node
	height      int
	ins, del    int // subtree totals (including self)
}

// PDT is a positional delta tree. The zero value is NOT usable; call New.
type PDT struct {
	root *node
	ops  int

	flatMu sync.Mutex
	flat   []Op // Ops of the current tree; nil until asked for, and after every change
}

// New creates an empty PDT.
func New() *PDT { return &PDT{} }

// Len returns the number of delta ops.
func (p *PDT) Len() int { return p.ops }

// Delta returns inserts-minus-deletes: how much the image size differs from
// the stable size.
func (p *PDT) Delta() int64 {
	if p.root == nil {
		return 0
	}
	return int64(p.root.ins - p.root.del)
}

// ImageRows returns the visible row count over a stable table of the given
// size.
func (p *PDT) ImageRows(stableRows int64) int64 { return stableRows + p.Delta() }

// --- node helpers ---

func h(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func insOf(n *node) int {
	if n == nil {
		return 0
	}
	return n.ins
}

func delOf(n *node) int {
	if n == nil {
		return 0
	}
	return n.del
}

func (n *node) selfIns() int {
	if n.kind == OpIns {
		return 1
	}
	return 0
}

func (n *node) selfDel() int {
	if n.kind == OpDel {
		return 1
	}
	return 0
}

func (n *node) update() {
	n.height = 1 + max(h(n.left), h(n.right))
	n.ins = insOf(n.left) + insOf(n.right) + n.selfIns()
	n.del = delOf(n.left) + delOf(n.right) + n.selfDel()
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

func rebalance(n *node) *node {
	n.update()
	switch bf := h(n.left) - h(n.right); {
	case bf > 1:
		if h(n.left.left) < h(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if h(n.right.right) < h(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// pos computes a node's image position given the insert/delete counts of
// everything before it (ancestors' left context plus its own left subtree).
func (n *node) pos(ia, da int) int64 {
	return n.sid + int64(ia+insOf(n.left)) - int64(da+delOf(n.left))
}

// --- location ---

// locKind says what an image RID resolved to.
type locKind uint8

const (
	locStable locKind = iota // untouched stable row
	locIns                   // a PDT-inserted row
	locMod                   // a modified stable row
)

type location struct {
	kind locKind
	sid  int64 // stable row (locStable / locMod)
	nd   *node // locIns / locMod node
}

// locate resolves image position rid.
func (p *PDT) locate(rid int64) location {
	n := p.root
	ia, da := 0, 0
	for n != nil {
		pos := n.pos(ia, da)
		switch {
		case rid < pos:
			n = n.left
		case rid == pos && n.kind == OpIns:
			return location{kind: locIns, nd: n, sid: n.sid}
		case rid == pos && n.kind == OpMod:
			return location{kind: locMod, nd: n, sid: n.sid}
		default:
			// rid > pos, or rid == pos at a delete (the deleted stable row
			// is invisible; this position belongs to a later row).
			ia += insOf(n.left) + n.selfIns()
			da += delOf(n.left) + n.selfDel()
			n = n.right
		}
	}
	return location{kind: locStable, sid: rid - int64(ia) + int64(da)}
}

// Resolve maps an image position to (stable SID, whether the row is a
// PDT insert). For inserts the returned SID is the insert's anchor.
func (p *PDT) Resolve(rid int64) (sid int64, inserted bool) {
	loc := p.locate(rid)
	return loc.sid, loc.kind == locIns
}

// --- updates ---

// InsertAt inserts a row so that it appears at image position rid.
func (p *PDT) InsertAt(rid int64, row []types.Value) error {
	if rid < 0 {
		return fmt.Errorf("pdt: insert at negative position %d", rid)
	}
	p.flat = nil
	r := make([]types.Value, len(row))
	copy(r, row)
	nn := &node{kind: OpIns, row: r, height: 1, ins: 1}
	p.root = insertByRID(p.root, nn, rid, 0, 0)
	p.ops++
	mInserts.Inc()
	return nil
}

// insertByRID descends by image position; the new insert lands before
// whatever currently occupies rid. The anchor SID is assigned at the leaf.
func insertByRID(n, nn *node, rid int64, ia, da int) *node {
	if n == nil {
		nn.sid = rid - int64(ia) + int64(da)
		return nn
	}
	pos := n.pos(ia, da)
	goLeft := rid < pos
	if rid == pos {
		// Land before an insert or modified row at this position; a delete
		// at this position covers an invisible row, keep going right.
		goLeft = n.kind != OpDel
	}
	if goLeft {
		n.left = insertByRID(n.left, nn, rid, ia, da)
	} else {
		n.right = insertByRID(n.right, nn, rid,
			ia+insOf(n.left)+n.selfIns(), da+delOf(n.left)+n.selfDel())
	}
	return rebalance(n)
}

// DeleteAt removes the row at image position rid.
func (p *PDT) DeleteAt(rid int64) error {
	if rid < 0 {
		return fmt.Errorf("pdt: delete at negative position %d", rid)
	}
	p.flat = nil
	loc := p.locate(rid)
	switch loc.kind {
	case locIns:
		// The inserted row vanishes entirely.
		p.root = removeInsByRID(p.root, rid, 0, 0)
		p.ops--
		return nil
	case locMod:
		// The modify becomes a delete of the same stable row.
		p.modToDel(loc.nd)
		mDeletes.Inc()
		return nil
	default:
		nn := &node{kind: OpDel, sid: loc.sid, height: 1, del: 1}
		p.root = insertBySID(p.root, nn)
		p.ops++
		mDeletes.Inc()
		return nil
	}
}

// ModifyAt changes one column of the row at image position rid.
func (p *PDT) ModifyAt(rid int64, col int, v types.Value) error {
	if rid < 0 {
		return fmt.Errorf("pdt: modify at negative position %d", rid)
	}
	p.flat = nil
	loc := p.locate(rid)
	switch loc.kind {
	case locIns:
		loc.nd.row[col] = v
		return nil
	case locMod:
		loc.nd.mods[col] = v
		return nil
	default:
		nn := &node{kind: OpMod, sid: loc.sid, height: 1,
			mods: map[int]types.Value{col: v}}
		p.root = insertBySID(p.root, nn)
		p.ops++
		mModifies.Inc()
		return nil
	}
}

// insertBySID places a delete/modify node for a stable row: after all
// inserts anchored at the same SID, in SID order relative to other
// stable-row ops.
func insertBySID(n, nn *node) *node {
	if n == nil {
		return nn
	}
	// Go left only if the new op's stable row strictly precedes n's anchor;
	// at equal SID, inserts (anchored before the row) sort first, so the
	// del/mod goes right.
	if nn.sid < n.sid {
		n.left = insertBySID(n.left, nn)
	} else {
		n.right = insertBySID(n.right, nn)
	}
	return rebalance(n)
}

// --- SID-anchored redo APIs ---
//
// Commit-time propagation (see the txn package) replays a transaction's
// ops onto the shared read-PDT *by stable SID*, which is invariant under
// concurrent commits — no positional rebasing needed.

// InsertAtSID inserts a row anchored immediately before stable row sid,
// after any inserts already anchored there (commit order).
func (p *PDT) InsertAtSID(sid int64, row []types.Value) {
	p.flat = nil
	r := make([]types.Value, len(row))
	copy(r, row)
	nn := &node{kind: OpIns, sid: sid, row: r, height: 1, ins: 1}
	p.root = insertInsBySID(p.root, nn)
	p.ops++
	mInserts.Inc()
}

// insertInsBySID keeps the same-SID ordering invariant: inserts (in arrival
// order) strictly before the del/mod node of that SID.
func insertInsBySID(n, nn *node) *node {
	if n == nil {
		return nn
	}
	goLeft := nn.sid < n.sid || (nn.sid == n.sid && n.kind != OpIns)
	if goLeft {
		n.left = insertInsBySID(n.left, nn)
	} else {
		n.right = insertInsBySID(n.right, nn)
	}
	return rebalance(n)
}

// findStableOp returns the del/mod node for stable row sid, if any.
func (p *PDT) findStableOp(sid int64) *node {
	n := p.root
	for n != nil {
		switch {
		case sid < n.sid:
			n = n.left
		case sid > n.sid:
			n = n.right
		default:
			if n.kind != OpIns {
				return n
			}
			// Inserts at this SID sort before the del/mod; keep right.
			n = n.right
		}
	}
	return nil
}

// DeleteAtSID marks stable row sid deleted. Deleting an already-deleted row
// is an error (the txn layer's conflict check prevents it).
func (p *PDT) DeleteAtSID(sid int64) error {
	p.flat = nil
	if nd := p.findStableOp(sid); nd != nil {
		if nd.kind == OpDel {
			return fmt.Errorf("pdt: stable row %d already deleted", sid)
		}
		p.modToDel(nd)
		mDeletes.Inc()
		return nil
	}
	nn := &node{kind: OpDel, sid: sid, height: 1, del: 1}
	p.root = insertBySID(p.root, nn)
	p.ops++
	mDeletes.Inc()
	return nil
}

// ModifyAtSID updates one column of stable row sid.
func (p *PDT) ModifyAtSID(sid int64, col int, v types.Value) error {
	p.flat = nil
	if nd := p.findStableOp(sid); nd != nil {
		if nd.kind == OpDel {
			return fmt.Errorf("pdt: stable row %d is deleted", sid)
		}
		nd.mods[col] = v
		return nil
	}
	nn := &node{kind: OpMod, sid: sid, height: 1, mods: map[int]types.Value{col: v}}
	p.root = insertBySID(p.root, nn)
	p.ops++
	mModifies.Inc()
	return nil
}

// StableDeleted reports whether stable row sid is marked deleted.
func (p *PDT) StableDeleted(sid int64) bool {
	nd := p.findStableOp(sid)
	return nd != nil && nd.kind == OpDel
}

// removeInsByRID deletes the insert node at image position rid, navigating
// by the same positional arithmetic as locate.
func removeInsByRID(n *node, rid int64, ia, da int) *node {
	if n == nil {
		return nil // caller guaranteed existence via locate
	}
	pos := n.pos(ia, da)
	switch {
	case rid < pos:
		n.left = removeInsByRID(n.left, rid, ia, da)
	case rid == pos && n.kind == OpIns:
		return spliceOut(n)
	default:
		n.right = removeInsByRID(n.right, rid,
			ia+insOf(n.left)+n.selfIns(), da+delOf(n.left)+n.selfDel())
	}
	return rebalance(n)
}

// spliceOut removes the root of a subtree, promoting its in-order successor.
func spliceOut(n *node) *node {
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	// Pull up the leftmost node of the right subtree.
	var succ *node
	n.right, succ = popLeftmost(n.right)
	succ.left = n.left
	succ.right = n.right
	return rebalance(succ)
}

func popLeftmost(n *node) (*node, *node) {
	if n.left == nil {
		return n.right, n
	}
	var leftmost *node
	n.left, leftmost = popLeftmost(n.left)
	return rebalance(n), leftmost
}

// modToDel turns the modify node nd into the delete of its stable row, in
// place, and counts the delete in every subtree that holds nd: the nodes on
// the path from the root, found by the order insertBySID keeps (a stable
// row's del/mod node sorts after the inserts anchored at its SID). O(log d).
func (p *PDT) modToDel(nd *node) {
	nd.kind = OpDel
	nd.mods = nil
	for n := p.root; n != nil; {
		n.del++
		switch {
		case n == nd:
			return
		case nd.sid < n.sid:
			n = n.left
		default:
			n = n.right
		}
	}
}

// Ops returns the deltas as a flat, in-order snapshot (SID-ascending). The
// slice is computed once per state of the tree and shared by every caller:
// read it, never write it. Its rows and modify maps are the tree's own, so
// the snapshot stays valid only until the tree changes.
func (p *PDT) Ops() []Op {
	p.flatMu.Lock()
	defer p.flatMu.Unlock()
	if p.flat == nil {
		p.flat = p.flatten()
	}
	return p.flat
}

func (p *PDT) flatten() []Op {
	out := make([]Op, 0, p.ops)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		op := Op{Kind: n.kind, SID: n.sid}
		if n.kind == OpIns {
			op.Row = n.row
		}
		if n.kind == OpMod {
			op.Mods = n.mods
		}
		out = append(out, op)
		walk(n.right)
	}
	walk(p.root)
	return out
}

// Clone returns a structural copy sharing no mutable nodes: what a commit
// changes when snapshots still read the tree it would otherwise change in
// place (the read-PDT versioning trick).
func (p *PDT) Clone() *PDT {
	var cp func(n *node) *node
	cp = func(n *node) *node {
		if n == nil {
			return nil
		}
		nn := *n
		if n.row != nil {
			nn.row = append([]types.Value(nil), n.row...)
		}
		if n.mods != nil {
			nn.mods = make(map[int]types.Value, len(n.mods))
			for k, v := range n.mods {
				nn.mods[k] = v
			}
		}
		nn.left = cp(n.left)
		nn.right = cp(n.right)
		return &nn
	}
	return &PDT{root: cp(p.root), ops: p.ops}
}
