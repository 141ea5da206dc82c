package lot

import (
	"sort"

	"canopus/internal/wire"
)

// View is one node's emulation table: the mapping from each vnode to the
// live pnodes that emulate it (paper §4.6). Each node owns a private View;
// identical membership updates are applied at identical cycle boundaries,
// which keeps all views equal — the invariant Appendix A's proof rests on.
type View struct {
	tree  *Tree
	alive map[wire.NodeID]bool
	// members[sl] is the current (alive) membership of each super-leaf in
	// ascending node-ID order.
	members [][]wire.NodeID
}

// NewView creates a view in which every configured node is alive.
func NewView(t *Tree) *View {
	v := &View{
		tree:    t,
		alive:   make(map[wire.NodeID]bool),
		members: make([][]wire.NodeID, t.NumSuperLeaves()),
	}
	for i := 0; i < t.NumSuperLeaves(); i++ {
		sl := t.SuperLeaf(i)
		v.members[i] = append([]wire.NodeID(nil), sl.Members...)
		for _, id := range sl.Members {
			v.alive[id] = true
		}
	}
	return v
}

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	c := &View{
		tree:    v.tree,
		alive:   make(map[wire.NodeID]bool, len(v.alive)),
		members: make([][]wire.NodeID, len(v.members)),
	}
	for id, a := range v.alive {
		c.alive[id] = a
	}
	for i, m := range v.members {
		c.members[i] = append([]wire.NodeID(nil), m...)
	}
	return c
}

// Tree returns the underlying immutable tree.
func (v *View) Tree() *Tree { return v.tree }

// Alive reports whether the view considers node id live.
func (v *View) Alive(id wire.NodeID) bool { return v.alive[id] }

// Members returns the live members of super-leaf sl in ascending order.
// The returned slice must not be modified.
func (v *View) Members(sl int) []wire.NodeID { return v.members[sl] }

// Apply folds a batch of membership updates into the view. Updates are
// idempotent: removing an absent node or adding a present one is a no-op,
// which makes replayed piggybacked updates harmless.
func (v *View) Apply(updates []wire.MemberUpdate) {
	for _, u := range updates {
		sl := v.tree.SuperLeafOf(u.Node)
		if sl < 0 {
			continue // unknown node: structure never changes (A3)
		}
		if u.Leave {
			if !v.alive[u.Node] {
				continue
			}
			v.alive[u.Node] = false
			v.members[sl] = remove(v.members[sl], u.Node)
		} else {
			if v.alive[u.Node] {
				continue
			}
			v.alive[u.Node] = true
			v.members[sl] = insertSorted(v.members[sl], u.Node)
		}
	}
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
