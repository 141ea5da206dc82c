package lot

import (
	"slices"
	"sort"

	"canopus/internal/wire"
)

// View is one node's emulation table: the mapping from each vnode to the
// live pnodes that emulate it (paper §4.6). Each node owns a private View;
// identical membership updates are applied at identical cycle boundaries,
// which keeps all views equal — the invariant Appendix A's proof rests on.
//
// A node holds a seat from the commit of the join that gives it one until
// the commit of the Leave that retires it. A seat takes effect at a cycle
// the join names (Join's from): until then the node is pending — alive,
// so no second join seats it, but absent from Members, so no cycle before
// from waits for it or routes to it. Seat makes it a member.
type View struct {
	tree *Tree
	// members[sl] is the current seated membership of each super-leaf in
	// ascending node-ID order.
	members [][]wire.NodeID
	// inc counts each node's joins: the incarnation its broadcast group
	// runs under.
	inc map[wire.NodeID]uint32
	// pending lists the seats not yet taken, in join order.
	pending []Seat
}

// Seat is a joiner's pending seat: Node counts from cycle From on.
type Seat struct {
	Node wire.NodeID
	From uint64
}

// NewView creates a view in which every configured node is seated at
// incarnation zero.
func NewView(t *Tree) *View {
	v := newView(t)
	for i := range v.members {
		v.members[i] = append([]wire.NodeID(nil), t.SuperLeaf(i).Members...)
	}
	return v
}

// RestoreView rebuilds a view from a sponsor's transfer: the nodes holding
// a seat, their incarnations, and for each the cycle its pending seat
// counts from (0 once seated). The three slices are aligned.
func RestoreView(t *Tree, alive []wire.NodeID, incs []uint32, from []uint64) *View {
	v := newView(t)
	for i, id := range alive {
		sl := t.SuperLeafOf(id)
		switch {
		case sl < 0:
			continue
		case i < len(from) && from[i] > 0:
			v.pending = append(v.pending, Seat{Node: id, From: from[i]})
		default:
			v.members[sl] = insertSorted(v.members[sl], id)
		}
		if i < len(incs) {
			v.inc[id] = incs[i]
		}
	}
	return v
}

func newView(t *Tree) *View {
	return &View{tree: t, members: make([][]wire.NodeID, t.NumSuperLeaves()), inc: make(map[wire.NodeID]uint32)}
}

// Alive reports whether node id holds a seat, taken or pending.
func (v *View) Alive(id wire.NodeID) bool {
	sl := v.tree.SuperLeafOf(id)
	return sl >= 0 && (slices.Contains(v.members[sl], id) || v.PendingFrom(id) > 0)
}

// Incarnation reports how many times node id has been seated by a join.
func (v *View) Incarnation(id wire.NodeID) uint32 { return v.inc[id] }

// Members returns the seated members of super-leaf sl in ascending order.
// The returned slice must not be modified.
func (v *View) Members(sl int) []wire.NodeID { return v.members[sl] }

// Pending returns the seats not yet taken. The returned slice must not be
// modified.
func (v *View) Pending() []Seat { return v.pending }

// PendingFrom reports the cycle node id's pending seat counts from, or 0
// if it has none.
func (v *View) PendingFrom(id wire.NodeID) uint64 {
	for _, s := range v.pending {
		if s.Node == id {
			return s.From
		}
	}
	return 0
}

// Join gives node id a seat counting from cycle from (at least 1) under a
// new incarnation. It reports false, changing nothing, if id already
// holds one or is not a configured node.
func (v *View) Join(id wire.NodeID, from uint64) bool {
	if v.tree.SuperLeafOf(id) < 0 || v.Alive(id) {
		return false
	}
	v.inc[id]++
	v.pending = append(v.pending, Seat{Node: id, From: from})
	return true
}

// Seat makes every pending seat that counts from cycle k or earlier a
// membership, and returns those nodes in join order.
func (v *View) Seat(k uint64) []wire.NodeID {
	var seated []wire.NodeID
	kept := v.pending[:0]
	for _, s := range v.pending {
		if s.From > k {
			kept = append(kept, s)
			continue
		}
		sl := v.tree.SuperLeafOf(s.Node)
		v.members[sl] = insertSorted(v.members[sl], s.Node)
		seated = append(seated, s.Node)
	}
	v.pending = kept
	return seated
}

// Leave retires seated member id and reports whether it did. A pending
// seat is not retired: a Leave that commits before the seat is taken was
// issued against the node's previous incarnation, or by an eviction of
// cycles the new one never served.
func (v *View) Leave(id wire.NodeID) bool {
	sl := v.tree.SuperLeafOf(id)
	if sl < 0 || !slices.Contains(v.members[sl], id) {
		return false
	}
	v.members[sl] = remove(v.members[sl], id)
	return true
}

func remove(s []wire.NodeID, id wire.NodeID) []wire.NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

func insertSorted(s []wire.NodeID, id wire.NodeID) []wire.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// Emulators returns the live pnodes that emulate vnode id: every live
// descendant (paper §4.1: "the current state of a vnode can be obtained
// by querying any one of its descendants").
func (v *View) Emulators(id string) []wire.NodeID {
	var out []wire.NodeID
	for _, sl := range v.tree.DescendantSuperLeaves(id) {
		out = append(out, v.members[sl]...)
	}
	return out
}

// EmulatorAt returns element i mod n of Emulators(id), n being its length,
// without building the slice; NoNode when no emulator is live. Callers
// use it to elect one emulator per (cycle, consumer) from the view alone.
func (v *View) EmulatorAt(id string, i uint64) wire.NodeID {
	sls := v.tree.DescendantSuperLeaves(id)
	n := 0
	for _, sl := range sls {
		n += len(v.members[sl])
	}
	if n == 0 {
		return wire.NoNode
	}
	k := int(i % uint64(n))
	for _, sl := range sls {
		m := v.members[sl]
		if k < len(m) {
			return m[k]
		}
		k -= len(m)
	}
	return wire.NoNode // unreachable: k < n
}

// Representatives returns the k representatives of super-leaf sl: the k
// lowest-ID live members. The choice is a deterministic function of the
// membership view, so — because all nodes hold identical views at a cycle
// boundary — every node agrees on the representative set without
// additional communication (paper §4.5).
func (v *View) Representatives(sl, k int) []wire.NodeID {
	m := v.members[sl]
	if k > len(m) {
		k = len(m)
	}
	return m[:k]
}

// RepresentativeFor returns which representative of super-leaf sl is
// responsible for the state of vnode target — receives it when pushed,
// pulls it when it fails to arrive — via the paper's modulo rule (§4.5:
// "the modulo of each vnode ID by the number of representatives", the ID
// being Tree.RepSlot), or NoNode if the super-leaf has no live members.
func (v *View) RepresentativeFor(sl int, target string, k int) wire.NodeID {
	reps := v.Representatives(sl, k)
	if len(reps) == 0 {
		return wire.NoNode
	}
	return reps[v.tree.RepSlot(sl, target)%len(reps)]
}

// SuperLeafFailed reports whether super-leaf sl can no longer sustain the
// protocol: reliable broadcast needs a majority of the configured members
// (2F+1 members tolerate F failures, paper §4.3).
func (v *View) SuperLeafFailed(sl int) bool {
	configured := len(v.tree.SuperLeaf(sl).Members)
	return len(v.members[sl]) < configured/2+1
}
