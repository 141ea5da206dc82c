//go:build !race

// The race detector changes allocation counts (sync.Pool drops a random
// share of what is put back), so the pin holds only without it.

package livecluster

import (
	"testing"
	"time"

	"canopus/internal/core"
	"canopus/internal/wire"
)

// TestPortRulesAllocs pins the port's share of the hot path: one
// single-op frame through the port's rules — submit to its answer in the
// connection's buffer — allocates what it did when the rules still owned
// the socket. A Stale read is answered from committed state (1 object);
// a write rides a cycle of a one-node cluster (5).
func TestPortRulesAllocs(t *testing.T) {
	c, err := Start(Config{Nodes: 1, Node: core.Config{CycleInterval: time.Millisecond, TickInterval: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop(time.Second)
	p := c.Port(0)
	cc := p.Connect(func() {}, nil)
	for _, tc := range []struct {
		name string
		q    wire.ClientRequestV2
		max  float64
	}{
		{"stale read", wire.ClientRequestV2{ID: 1, Consistency: wire.Stale, Ops: []wire.ClientOp{{Op: wire.OpRead, Key: 7}}}, 1},
		{"write", single(1, wire.OpWrite, 7, "x"), 5},
	} {
		group := []wire.ClientRequestV2{tc.q}
		run := func() {
			p.submit(cc, group)
			// The answer is consumed in place, so no driver's buffer
			// traffic is counted.
			for {
				cc.outMu.Lock()
				n := len(cc.out)
				cc.out = cc.out[:0]
				cc.outMu.Unlock()
				if n > 0 {
					return
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
		for i := 0; i < 100; i++ {
			run()
		}
		if n := testing.AllocsPerRun(500, run); n > tc.max {
			t.Errorf("%s: %.2f allocations per frame, want at most %.0f", tc.name, n, tc.max)
		}
	}
}
