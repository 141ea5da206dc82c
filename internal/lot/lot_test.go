package lot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"canopus/internal/wire"
)

func mustTree(t *testing.T, sls int, size int, fanout int) *Tree {
	t.Helper()
	cfg := Config{Fanout: fanout}
	id := wire.NodeID(0)
	for s := 0; s < sls; s++ {
		var m []wire.NodeID
		for n := 0; n < size; n++ {
			m = append(m, id)
			id++
		}
		cfg.SuperLeaves = append(cfg.SuperLeaves, m)
	}
	tree, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func TestFigure1Shape(t *testing.T) {
	// Figure 1: 27 pnodes, 9 super-leaves of 3, fanout 3 -> height 3.
	tree := mustTree(t, 9, 3, 3)
	if tree.Height != 3 {
		t.Fatalf("height = %d, want 3", tree.Height)
	}
	if got := len(tree.Children(tree.Root)); got != 3 {
		t.Fatalf("root children = %d, want 3", got)
	}
	// Node 0 emulates its ancestors at heights 1..3, the root being "1".
	if tree.Ancestor(0, 3) != "1" {
		t.Fatalf("root ancestor = %q", tree.Ancestor(0, 3))
	}
}

func TestHeights(t *testing.T) {
	for _, tc := range []struct{ sls, fanout, want int }{
		{1, 0, 1}, {2, 0, 2}, {3, 0, 2}, {7, 0, 2},
		{4, 2, 3}, {8, 2, 4}, {9, 3, 3}, {27, 3, 4},
	} {
		tree := mustTree(t, tc.sls, 2, tc.fanout)
		if tree.Height != tc.want {
			t.Errorf("sls=%d fanout=%d: height=%d want %d", tc.sls, tc.fanout, tree.Height, tc.want)
		}
	}
}

func TestRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{SuperLeaves: [][]wire.NodeID{{}}}); err == nil {
		t.Error("empty super-leaf accepted")
	}
	if _, err := New(Config{SuperLeaves: [][]wire.NodeID{{1}, {1}}}); err == nil {
		t.Error("duplicate node accepted")
	}
}

// Property: every vnode's emulator set is exactly the union of its
// descendant super-leaves' members, and ancestors chain correctly.
func TestQuickEmulationClosure(t *testing.T) {
	f := func(slsRaw, sizeRaw, fanoutRaw uint8) bool {
		sls := int(slsRaw%9) + 1
		size := int(sizeRaw%4) + 1
		fanout := int(fanoutRaw % 4) // 0..3
		if fanout == 1 {
			fanout = 2
		}
		cfg := Config{Fanout: fanout}
		id := wire.NodeID(0)
		for s := 0; s < sls; s++ {
			var m []wire.NodeID
			for n := 0; n < size; n++ {
				m = append(m, id)
				id++
			}
			cfg.SuperLeaves = append(cfg.SuperLeaves, m)
		}
		tree, err := New(cfg)
		if err != nil {
			return false
		}
		view := NewView(tree)
		// The root is emulated by everyone.
		if len(view.Emulators(tree.Root)) != sls*size {
			return false
		}
		// Each super-leaf's parent is emulated exactly by its members.
		for s := 0; s < sls; s++ {
			if len(view.Emulators(tree.Ancestor(s, 1))) != size {
				return false
			}
			// Ancestors chain from height 1 to the root.
			prev := tree.Ancestor(s, 1)
			for h := 2; h <= tree.Height; h++ {
				anc := tree.Ancestor(s, h)
				found := false
				for _, c := range tree.Children(anc) {
					if c == prev {
						found = true
					}
				}
				if !found {
					return false
				}
				prev = anc
			}
			if prev != tree.Root {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestViewMembershipUpdates(t *testing.T) {
	tree := mustTree(t, 3, 3, 0)
	v := NewView(tree)
	v.Leave(4)
	if v.Alive(4) {
		t.Fatal("node 4 still alive")
	}
	if got := len(v.Members(1)); got != 2 {
		t.Fatalf("super-leaf 1 members = %d, want 2", got)
	}
	if got := len(v.Emulators(tree.Ancestor(1, 1))); got != 2 {
		t.Fatalf("emulators = %d, want 2", got)
	}
	// Idempotent re-apply, then re-join: pending until its seat is taken.
	if v.Leave(4) {
		t.Fatal("second Leave retired node 4 again")
	}
	if !v.Join(4, 5) || v.Join(4, 5) || !v.Alive(4) || len(v.Members(1)) != 2 || v.Incarnation(4) != 1 {
		t.Fatal("join did not leave node 4 pending at incarnation 1")
	}
	if v.Leave(4) {
		t.Fatal("a Leave retired a pending seat")
	}
	if got := v.Seat(4); len(got) != 0 {
		t.Fatalf("Seat(4) took %v, want nothing before cycle 5", got)
	}
	if got := v.Seat(5); len(got) != 1 || got[0] != 4 || len(v.Members(1)) != 3 {
		t.Fatalf("Seat(5) took %v, want node 4 seated", got)
	}
	// Members stay sorted.
	m := v.Members(1)
	for i := 1; i < len(m); i++ {
		if m[i] <= m[i-1] {
			t.Fatal("members unsorted after churn")
		}
	}
}

func TestRepresentativesDeterministic(t *testing.T) {
	tree := mustTree(t, 3, 3, 0)
	v := NewView(tree)
	reps := v.Representatives(0, 2)
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Fatalf("reps = %v, want [0 1]", reps)
	}
	// Modulo assignment spreads the vnodes a super-leaf merges across its
	// representatives — in every super-leaf, the middle one included,
	// whose remote vnodes 1.1 and 1.3 have tree-wide ordinals of one
	// parity.
	for sl := 0; sl < 3; sl++ {
		remote := tree.Remote(sl)
		if len(remote) != 2 {
			t.Fatalf("super-leaf %d merges %v, want 2 vnodes", sl, remote)
		}
		if a, b := v.RepresentativeFor(sl, remote[0], 2), v.RepresentativeFor(sl, remote[1], 2); a == b {
			t.Fatalf("super-leaf %d: both %v assigned to %v", sl, remote, a)
		}
	}
	// Representative failure promotes the next member.
	v.Leave(0)
	reps = v.Representatives(0, 2)
	if len(reps) != 2 || reps[0] != 1 || reps[1] != 2 {
		t.Fatalf("reps after failure = %v, want [1 2]", reps)
	}
}

func TestSuperLeafFailed(t *testing.T) {
	tree := mustTree(t, 2, 3, 0)
	v := NewView(tree)
	if v.SuperLeafFailed(0) {
		t.Fatal("healthy super-leaf reported failed")
	}
	v.Leave(0)
	if v.SuperLeafFailed(0) {
		t.Fatal("one failure of three should not fail the super-leaf")
	}
	v.Leave(1)
	if !v.SuperLeafFailed(0) {
		t.Fatal("majority failure must fail the super-leaf")
	}
}

func TestParsePath(t *testing.T) {
	if _, err := ParsePath("1.2.3"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a", "1..2", "0", "1.-2"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) accepted", bad)
		}
	}
}

func TestRemoteAndEmulatorAt(t *testing.T) {
	// 4 super-leaves, fanout 2: height 3. Super-leaf 0 (1.1.1) merges its
	// sibling leaf in round 2 and the other half of the tree in round 3.
	tree := mustTree(t, 4, 3, 2)
	if got := tree.Remote(0); len(got) != 2 || got[0] != "1.1.2" || got[1] != "1.2" {
		t.Fatalf("Remote(0) = %v, want [1.1.2 1.2]", got)
	}
	if got := tree.Remote(3); len(got) != 2 || got[0] != "1.2.1" || got[1] != "1.1" {
		t.Fatalf("Remote(3) = %v, want [1.2.1 1.1]", got)
	}
	if got := mustTree(t, 1, 3, 0).Remote(0); len(got) != 0 {
		t.Fatalf("height-1 tree: Remote(0) = %v, want none", got)
	}
	v := NewView(tree)
	v.Leave(1)
	for _, id := range []string{"1.1.1", "1.1", "1"} {
		ems := v.Emulators(id)
		for i := 0; i < 2*len(ems); i++ {
			if got := v.EmulatorAt(id, uint64(i)); got != ems[i%len(ems)] {
				t.Fatalf("EmulatorAt(%s, %d) = %v, want %v", id, i, got, ems[i%len(ems)])
			}
		}
	}
	v.Leave(0)
	v.Leave(2)
	if got := v.EmulatorAt("1.1.1", 7); got != wire.NoNode {
		t.Fatalf("EmulatorAt of a dead leaf = %v, want NoNode", got)
	}
}
