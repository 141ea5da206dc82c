package zk

import (
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/lot"
	"canopus/internal/netsim"
	"canopus/internal/wire"
)

func TestTreeApplySemantics(t *testing.T) {
	tr := NewTree()
	apply := func(op WriteOp, path string, data []byte) {
		tr.ApplyWrite(&wire.Request{Op: wire.OpWrite, Key: PathKey(path), Val: EncodeWrite(op, path, data)})
	}
	apply(OpCreate, "/a", []byte("1"))
	apply(OpCreate, "/a", []byte("2")) // create-if-absent: no-op
	if got := tr.GetLocal("/a"); string(got.Data) != "1" || got.Version != 1 {
		t.Fatalf("/a = %q v%d", got.Data, got.Version)
	}
	apply(OpSet, "/a", []byte("3"))
	if got := tr.GetLocal("/a"); string(got.Data) != "3" || got.Version != 2 {
		t.Fatalf("/a after set = %q v%d", got.Data, got.Version)
	}
	apply(OpDeleteIfValue, "/a", []byte("nope")) // mismatch: no-op
	if tr.GetLocal("/a") == nil {
		t.Fatal("conditional delete fired on mismatch")
	}
	apply(OpDeleteIfValue, "/a", []byte("3"))
	if tr.GetLocal("/a") != nil {
		t.Fatal("conditional delete missed")
	}
	// Read through the consensus key space.
	apply(OpSet, "/b", []byte("bee"))
	if got := tr.Read(PathKey("/b")); string(got) != "bee" {
		t.Fatalf("Read = %q", got)
	}
}

func TestWatchFiresOnce(t *testing.T) {
	tr := NewTree()
	fired := 0
	tr.Watch("/w", func(n *ZNode) { fired++ })
	set := func(v string) {
		tr.ApplyWrite(&wire.Request{Op: wire.OpWrite, Key: PathKey("/w"), Val: EncodeWrite(OpSet, "/w", []byte(v))})
	}
	set("1")
	set("2")
	if fired != 1 {
		t.Fatalf("watch fired %d times, want 1 (one-shot)", fired)
	}
}

func TestSnapshotRebuild(t *testing.T) {
	tr := NewTree()
	for _, p := range []string{"/x", "/y", "/z"} {
		tr.ApplyWrite(&wire.Request{Op: wire.OpWrite, Key: PathKey(p), Val: EncodeWrite(OpSet, p, []byte(p))})
	}
	snap := tr.Snapshot()
	tr2 := NewTree()
	for i := range snap {
		tr2.ApplyWrite(&snap[i])
	}
	if tr2.Len() != 3 || string(tr2.GetLocal("/y").Data) != "/y" {
		t.Fatal("snapshot rebuild mismatch")
	}
}

func TestEncodeDecodeWrite(t *testing.T) {
	v := EncodeWrite(OpSet, "/some/path", []byte("data"))
	op, path, data, ok := DecodeWrite(v)
	if !ok || op != OpSet || path != "/some/path" || string(data) != "data" {
		t.Fatalf("decode = %v %q %q %v", op, path, data, ok)
	}
	if _, _, _, ok := DecodeWrite([]byte{1}); ok {
		t.Fatal("truncated write decoded")
	}
}

// TestZKCanopusEndToEnd runs the coordination layer over real Canopus
// consensus on the simulator: a lock race with linearizable verify.
func TestZKCanopusEndToEnd(t *testing.T) {
	sim := netsim.NewSim()
	topo := netsim.SingleDC(2, 3, netsim.Params{})
	runner := netsim.NewRunner(sim, topo, netsim.DefaultCosts(), 17)
	tree, _ := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{
		topo.RackMembers(0), topo.RackMembers(1),
	}})
	servers := make([]*Server, 6)
	for i := 0; i < 6; i++ {
		id := wire.NodeID(i)
		zt := NewTree()
		var srv *Server
		node := core.NewNode(core.Config{Tree: tree, Self: id}, zt, core.Callbacks{Consumers: []core.Consumer{core.ConsumerFunc(func(c *core.Commit) {
			for i := range c.Replies {
				srv.Complete(&c.Replies[i], c.Vals[i])
			}
		})}})
		srv = NewServer(zt, node, uint64(i)+1, true)
		servers[i] = srv
		runner.Register(id, node)
	}
	winners := 0
	for _, i := range []int{0, 3, 5} {
		srv := servers[i]
		me := []byte{byte(i)}
		sim.At(time.Millisecond, func() {
			srv.Create("/lock", me, func(*ZNode) {
				srv.Get("/lock", func(n *ZNode) {
					if n != nil && len(n.Data) == 1 && n.Data[0] == me[0] {
						winners++
					}
				})
			})
		})
	}
	sim.RunUntil(2 * time.Second)
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
}
