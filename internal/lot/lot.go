// Package lot implements the Leaf-Only Tree overlay (Allavena et al.,
// adapted by Canopus §4.1).
//
// Only leaf nodes (pnodes) exist physically; every internal node (vnode)
// is virtual and emulated by all of its descendant pnodes. Pnodes in the
// same rack form a super-leaf. The tree shape is fixed for the lifetime
// of a deployment (paper assumption A3: nodes may join or leave
// super-leaves, but super-leaves are never added or removed), while
// per-node liveness is tracked by a View holding the emulation table.
//
// VNode identifiers are dotted paths rooted at "1": the root of a
// height-2 tree with three super-leaves is "1" and its height-1 children
// are "1.1", "1.2", "1.3" (Figure 1 of the paper). The tree's height is
// the number of rounds in one consensus cycle — internal/core walks one
// level per round, and a super-leaf's representatives fetch remote vnode
// states from the emulators the View reports. Run cmd/lotviz to print
// any tree shape with its emulation tables.
package lot

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"canopus/internal/wire"
)

// Config describes the shape of a LOT.
type Config struct {
	// SuperLeaves lists the member pnodes of each super-leaf. Order is
	// significant: the i-th entry becomes the super-leaf under the i-th
	// height-1 vnode.
	SuperLeaves [][]wire.NodeID
	// Fanout bounds the number of children of each vnode above height 1.
	// Zero means "all super-leaves directly under the root" (height 2,
	// the shape used throughout the paper's evaluation).
	Fanout int
}

// SuperLeaf is one rack's worth of pnodes sharing a height-1 parent.
type SuperLeaf struct {
	Index   int
	Parent  string // the height-1 vnode this super-leaf constitutes
	Members []wire.NodeID
}

// VNode is one virtual internal node.
type VNode struct {
	ID       string
	Ordinal  int // dense tree-wide index in preorder
	Height   int // 1 = super-leaf parent; tree height = root's height
	Parent   string
	Children []string // child vnode IDs; empty at height 1
	// SuperLeaf is the index of the super-leaf under this vnode when
	// Height == 1, else -1.
	SuperLeaf int
}

// Tree is an immutable LOT shape shared by all nodes of a deployment.
type Tree struct {
	Height      int
	Root        string
	superLeaves []*SuperLeaf
	vnodes      map[string]*VNode
	slOf        map[wire.NodeID]int
	// ancestors[sl][h-1] is the height-h ancestor vnode of super-leaf sl.
	ancestors [][]string
	// descSLs[vnodeID] lists the super-leaf indexes under each vnode.
	descSLs map[string][]int
	// remote[sl] lists the vnodes whose states super-leaf sl merges from
	// other branches, in round order (see Remote).
	remote [][]string
}

// New builds a LOT for the given configuration.
func New(cfg Config) (*Tree, error) {
	n := len(cfg.SuperLeaves)
	if n == 0 {
		return nil, fmt.Errorf("lot: no super-leaves")
	}
	seen := make(map[wire.NodeID]bool)
	for i, sl := range cfg.SuperLeaves {
		if len(sl) == 0 {
			return nil, fmt.Errorf("lot: super-leaf %d is empty", i)
		}
		for _, id := range sl {
			if id == wire.NoNode {
				return nil, fmt.Errorf("lot: invalid node id in super-leaf %d", i)
			}
			if seen[id] {
				return nil, fmt.Errorf("lot: node %v appears twice", id)
			}
			seen[id] = true
		}
	}
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = n // flat: all super-leaves under the root
	}
	if fanout == 1 && n > 1 {
		return nil, fmt.Errorf("lot: fanout 1 cannot cover %d super-leaves", n)
	}

	// Height above the super-leaves: smallest h such that fanout^(h-1)
	// covers n super-leaves, with a minimum height of 1 (single
	// super-leaf: the root IS the super-leaf parent).
	height := 1
	for cap := 1; cap < n; cap *= fanout {
		height++
	}

	t := &Tree{
		Height:  height,
		Root:    "1",
		vnodes:  make(map[string]*VNode),
		slOf:    make(map[wire.NodeID]int),
		descSLs: make(map[string][]int),
	}
	for i, members := range cfg.SuperLeaves {
		ms := append([]wire.NodeID(nil), members...)
		sort.Slice(ms, func(a, b int) bool { return ms[a] < ms[b] })
		t.superLeaves = append(t.superLeaves, &SuperLeaf{Index: i, Members: ms})
		for _, id := range ms {
			t.slOf[id] = i
		}
	}

	next := 0 // next super-leaf to place
	ordinal := 0
	var build func(id string, h int, count int) string
	build = func(id string, h int, count int) string {
		v := &VNode{ID: id, Ordinal: ordinal, Height: h, SuperLeaf: -1}
		ordinal++
		t.vnodes[id] = v
		if h == 1 {
			v.SuperLeaf = next
			t.superLeaves[next].Parent = id
			t.descSLs[id] = []int{next}
			next++
			return id
		}
		// Split count super-leaves into up to fanout child groups as
		// evenly as possible.
		groups := fanout
		if groups > count {
			groups = count
		}
		base, rem := count/groups, count%groups
		for c := 0; c < groups; c++ {
			sz := base
			if c < rem {
				sz++
			}
			child := fmt.Sprintf("%s.%d", id, c+1)
			build(child, h-1, sz)
			v.Children = append(v.Children, child)
			t.descSLs[id] = append(t.descSLs[id], t.descSLs[child]...)
		}
		return id
	}
	build(t.Root, height, n)

	for _, v := range t.vnodes {
		if v.ID != t.Root {
			v.Parent = v.ID[:strings.LastIndexByte(v.ID, '.')]
		}
	}

	t.ancestors = make([][]string, n)
	for sl := range t.ancestors {
		anc := make([]string, height)
		id := t.superLeaves[sl].Parent
		for h := 1; h <= height; h++ {
			anc[h-1] = id
			id = t.vnodes[id].Parent
		}
		t.ancestors[sl] = anc
	}
	t.remote = make([][]string, n)
	for sl, anc := range t.ancestors {
		for h := 1; h < height; h++ {
			for _, c := range t.vnodes[anc[h]].Children {
				if c != anc[h-1] {
					t.remote[sl] = append(t.remote[sl], c)
				}
			}
		}
	}
	return t, nil
}

// NumSuperLeaves returns the number of super-leaves.
func (t *Tree) NumSuperLeaves() int { return len(t.superLeaves) }

// SuperLeafOf returns the super-leaf index of a pnode, or -1 if unknown.
func (t *Tree) SuperLeafOf(id wire.NodeID) int {
	if sl, ok := t.slOf[id]; ok {
		return sl
	}
	return -1
}

// SuperLeaf returns the super-leaf at index i.
func (t *Tree) SuperLeaf(i int) *SuperLeaf { return t.superLeaves[i] }

// VNode looks up a vnode by ID, returning nil if absent.
func (t *Tree) VNode(id string) *VNode { return t.vnodes[id] }

// Ancestor returns the height-h ancestor vnode ID of super-leaf sl.
// Ancestor(sl, 1) is the super-leaf's own parent; Ancestor(sl, Height) is
// the root.
func (t *Tree) Ancestor(sl, h int) string {
	if h < 1 || h > t.Height {
		panic(fmt.Sprintf("lot: height %d out of range [1,%d]", h, t.Height))
	}
	return t.ancestors[sl][h-1]
}

// Children returns the child vnode IDs of vnode id (nil at height 1).
func (t *Tree) Children(id string) []string { return t.vnodes[id].Children }

// DescendantSuperLeaves returns the indexes of super-leaves under vnode id.
func (t *Tree) DescendantSuperLeaves(id string) []int { return t.descSLs[id] }

// Remote returns the vnodes whose states super-leaf sl obtains from other
// super-leaves in the course of a cycle: for each round r = 2..Height, the
// children of its height-r ancestor other than its own height-(r-1)
// ancestor, in round order. Empty for a height-1 tree. The returned slice
// must not be modified.
func (t *Tree) Remote(sl int) []string { return t.remote[sl] }

// RepSlot returns the dividend of the §4.5 modulo rule for vnode id in
// super-leaf sl: the representative at index RepSlot mod the number of
// representatives is responsible for id's state there. It is id's position
// in Remote(sl), so the states a super-leaf merges alternate over its
// representatives whatever their global numbering — the modulo of the
// tree-wide Ordinal would hand both remote states of the middle one of
// three super-leaves (ordinals 1 and 3) to the same representative of
// two. For a vnode sl does not merge it is that Ordinal.
func (t *Tree) RepSlot(sl int, id string) int {
	for i, u := range t.remote[sl] {
		if u == id {
			return i
		}
	}
	return t.vnodes[id].Ordinal
}

// AllNodes returns every configured pnode in ascending ID order.
func (t *Tree) AllNodes() []wire.NodeID {
	var out []wire.NodeID
	for _, sl := range t.superLeaves {
		out = append(out, sl.Members...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// String renders the tree in the style of Figure 1.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(id string, indent int)
	walk = func(id string, indent int) {
		v := t.vnodes[id]
		fmt.Fprintf(&b, "%s%s (height %d)", strings.Repeat("  ", indent), id, v.Height)
		if v.SuperLeaf >= 0 {
			sl := t.superLeaves[v.SuperLeaf]
			fmt.Fprintf(&b, "  super-leaf %d: %v", sl.Index, sl.Members)
		}
		b.WriteByte('\n')
		for _, c := range v.Children {
			walk(c, indent+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}

// ParsePath validates a dotted vnode path and returns its components.
func ParsePath(id string) ([]int, error) {
	parts := strings.Split(id, ".")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("lot: bad path component %q in %q", p, id)
		}
		out[i] = v
	}
	return out, nil
}
