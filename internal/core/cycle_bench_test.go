package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"canopus/internal/engine"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// cycleNet hosts a deployment for BenchmarkCycleFixedCost: virtual time,
// zero latency, and — unlike netsim.Runner, which hands the receiver the
// sender's pointer and itself allocates four objects per message — every
// message crosses encoded and is decoded the way the live transport's
// readers do it (one wire.Decoder per receiver, reset after the turn). The
// driver allocates nothing in steady state, so what the benchmark counts
// is what the protocol and the codec allocate.
type cycleNet struct {
	now    time.Duration
	nodes  []*Node
	envs   []*cycleEnv
	dec    []wire.Decoder
	buf    []byte
	queue  []cycleMsg
	timers []cycleTimer
	msgs   int
}

type cycleMsg struct {
	from, to wire.NodeID
	off, end int
}

type cycleTimer struct {
	at  time.Duration
	to  wire.NodeID
	tag engine.TimerTag
}

type cycleEnv struct {
	net *cycleNet
	id  wire.NodeID
	rng *rand.Rand
}

func (e *cycleEnv) ID() wire.NodeID    { return e.id }
func (e *cycleEnv) Now() time.Duration { return e.net.now }
func (e *cycleEnv) Rand() *rand.Rand   { return e.rng }

func (e *cycleEnv) Send(to wire.NodeID, m wire.Message) {
	w := e.net
	off := len(w.buf)
	w.buf = m.(wire.Encodable).AppendTo(w.buf)
	w.queue = append(w.queue, cycleMsg{from: e.id, to: to, off: off, end: len(w.buf)})
}

func (e *cycleEnv) Multicast(to []wire.NodeID, m wire.Message) {
	for _, dst := range to {
		e.Send(dst, m)
	}
}

func (e *cycleEnv) After(d time.Duration, tag engine.TimerTag) {
	e.net.timers = append(e.net.timers, cycleTimer{at: e.net.now + d, to: e.id, tag: tag})
}

// cycleSM is a state machine that stores nothing but its (empty) session
// table: the benchmark measures what a cycle costs, not what a write costs
// the store.
type cycleSM struct{ sessions *kvstore.SessionTable }

func (cycleSM) ApplyWriteAt(*wire.Request, uint64, uint64) []byte { return nil }
func (cycleSM) Read(uint64) []byte                                { return nil }
func (cycleSM) ModCycle(uint64) uint64                            { return 0 }
func (cycleSM) ExpireOwned(uint64) []uint64                       { return nil }
func (m cycleSM) Sessions() *kvstore.SessionTable                 { return m.sessions }
func (cycleSM) Image() kvstore.Image                              { return kvstore.Image{} }
func (cycleSM) RestoreImage(kvstore.Image)                        {}

// benchInterval is the cycle and tick interval of the deployment, the one
// the repository's end-to-end benchmark (benchmark/) runs.
const benchInterval = 2 * time.Millisecond

func newCycleNet(tb testing.TB, leaves, perLeaf int) *cycleNet {
	sls := make([][]wire.NodeID, leaves)
	for l := range sls {
		for i := 0; i < perLeaf; i++ {
			sls[l] = append(sls[l], wire.NodeID(l*perLeaf+i))
		}
	}
	tree, err := lot.New(lot.Config{SuperLeaves: sls, Fanout: leaves})
	if err != nil {
		tb.Fatal(err)
	}
	w := &cycleNet{dec: make([]wire.Decoder, leaves*perLeaf)}
	for i := 0; i < leaves*perLeaf; i++ {
		id := wire.NodeID(i)
		w.nodes = append(w.nodes, NewNode(Config{
			Tree: tree, Self: id,
			CycleInterval: benchInterval, TickInterval: benchInterval, MaxBatch: 4096,
		}, cycleSM{kvstore.NewSessionTable()}, Callbacks{}))
		w.envs = append(w.envs, &cycleEnv{net: w, id: id, rng: rand.New(rand.NewSource(int64(i) + 11))})
	}
	for i, n := range w.nodes {
		n.Init(w.envs[i])
	}
	w.pump(tb)
	return w
}

// pump delivers queued messages, and those their handling sends, until
// none is left.
func (w *cycleNet) pump(tb testing.TB) {
	for i := 0; i < len(w.queue); i++ {
		e := w.queue[i]
		m, _, err := w.dec[e.to].Decode(w.buf[e.off:e.end])
		if err != nil {
			tb.Fatal(err)
		}
		w.nodes[e.to].Recv(e.from, m)
		w.dec[e.to].Reset()
		w.msgs++
	}
	w.queue, w.buf = w.queue[:0], w.buf[:0]
}

// advance moves the clock by d, firing the timers that fall due in order.
func (w *cycleNet) advance(tb testing.TB, d time.Duration) {
	end := w.now + d
	for {
		next := -1
		for i, t := range w.timers {
			if t.at <= end && (next < 0 || t.at < w.timers[next].at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := w.timers[next]
		w.timers = append(w.timers[:next], w.timers[next+1:]...)
		w.now = t.at
		w.nodes[t.to].Timer(t.tag)
		w.pump(tb)
	}
	w.now = end
}

// cycleFixedCostCeilings are the committed ceilings of
// BenchmarkCycleFixedCost, per topology: heap objects per node and cycle
// (0.87 and 0.77 today — 7.8 and 2.3 a cycle — since a small proposal's
// box, decoded or a node's own, and a small merged state come out of
// chunks too; 7.4 and 4.5 while only the broadcast's messages and a
// decoded proposal's requests and values did and a merged state was one
// object, 15.2 and 9.7 before those chunks, 16.9 and 10.7 while
// followers waited for the commit notice, 17.1 and 11.3 before the own
// proposal came out of one box, 34.9 and 20.7 before that), and
// messages per cycle, which are exact: 15 broadcasts of 4 messages and 6
// pushed states on 3 x 3, 3 broadcasts on 1 x 3 (96 and 18 while a leaf
// of three sent commit notices, 126 and 24 while they were answered). A
// change that needs more of either spends what a faster cycle clock would
// have to pay for (ROADMAP "Where the budget stands") and says so by raising
// a number here. Heap bytes per node and cycle are reported, not capped:
// 2011 and 1196 (1942 and 1179 before the boxes came out of chunks, 1954
// and 1192 before any chunk).
var cycleFixedCostCeilings = map[string]struct{ allocsPerNodeCycle, msgsPerCycle float64 }{
	"3x3": {allocsPerNodeCycle: 1.5, msgsPerCycle: 66},
	"1x3": {allocsPerNodeCycle: 1.5, msgsPerCycle: 12},
}

// heapPerRun runs f once to warm up, then runs times, and returns the heap
// objects and bytes allocated per run. Unlike testing.AllocsPerRun it does
// not truncate the objects to an integer: an allocation shared by the
// messages of several cycles counts by its share.
func heapPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkCycleFixedCost is one consensus cycle that orders one 128-byte
// write submitted at one node, everything else idle: the cost of a cycle
// that a request count does not amortize. It reports heap objects per
// cycle and per node and cycle, heap bytes per node and cycle (so a change
// that trades objects for bytes shows), and messages per cycle, and fails
// above cycleFixedCostCeilings.
func BenchmarkCycleFixedCost(b *testing.B) {
	for _, topo := range []struct{ leaves, perLeaf int }{{3, 3}, {1, 3}} {
		name := fmt.Sprintf("%dx%d", topo.leaves, topo.perLeaf)
		b.Run(name, func(b *testing.B) {
			w := newCycleNet(b, topo.leaves, topo.perLeaf)
			val := make([]byte, 128)
			seq := uint64(0)
			round := func() {
				seq++
				w.nodes[0].Submit(wire.Request{Client: 1, Seq: seq, Op: wire.OpWrite, Key: seq % 1024, Val: val})
				w.pump(b)
				w.advance(b, benchInterval)
			}
			for i := 0; i < 512; i++ {
				round() // fill the pools, reach the broadcast log's trimming steady state
			}
			const runs = 200
			msgs, committed := w.msgs, w.nodes[0].Ordered()
			allocs, bytes := heapPerRun(runs, round)
			cycles := float64(w.nodes[0].Ordered() - committed)
			if cycles != runs+1 { // heapPerRun runs once to warm up
				b.Fatalf("%d rounds committed %v cycles; the benchmark wants one each", runs+1, cycles)
			}
			for _, n := range w.nodes {
				if n.Ordered() != w.nodes[0].Ordered() {
					b.Fatalf("node %v ordered %d cycles, node 0 %d", n.ID(), n.Ordered(), w.nodes[0].Ordered())
				}
			}
			perCycle := float64(w.msgs-msgs) / cycles
			perNode := allocs / float64(len(w.nodes))
			bytesPerNode := bytes / float64(len(w.nodes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(allocs, "allocs/cycle")
			b.ReportMetric(perNode, "allocs/node-cycle")
			b.ReportMetric(bytesPerNode, "bytes/node-cycle")
			b.ReportMetric(perCycle, "msgs/cycle")
			ceil := cycleFixedCostCeilings[name]
			if perNode > ceil.allocsPerNodeCycle {
				b.Fatalf("a cycle allocates %.1f objects per node, ceiling %v", perNode, ceil.allocsPerNodeCycle)
			}
			if perCycle > ceil.msgsPerCycle {
				b.Fatalf("a cycle takes %.1f messages, ceiling %v", perCycle, ceil.msgsPerCycle)
			}
		})
	}
}

// TestKeptStatesPinOnlyTheirChunks is wire.TestKeptProposalPinsOnlyItsChunks
// for the boxes a node carves itself: what a node keeps of a cycle, its
// own round-1 proposal and its root state, pins the chunks those boxes lie
// in and no dropped neighbour's own allocations. Node 0 of a 3 × 3
// deployment orders one write in each of 255 cycles and the test keeps
// both boxes of the last; after a collection the live heap holds them plus
// at most a few chunks. A "small" cycle's write is 128 bytes and its boxes
// come out of chunks of boxChunk, whose neighbours then point at little;
// a "big" one's write is 64 KiB, and its boxes are allocations of their
// own. Were a big cycle's boxes chunked, a kept small one would pin the
// values of the big ones beside it.
func TestKeptStatesPinOnlyTheirChunks(t *testing.T) {
	const (
		cycles = 255 // not a multiple of boxChunk: a neighbour shares the kept ones' chunk
		small  = 128
		big    = 64 << 10
	)
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // and the sync.Pools' victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func(t *testing.T, isBig func(i int) bool) (own, root *wire.Proposal) {
		w := newCycleNet(t, 3, 3)
		n := w.nodes[0]
		for i := 0; i < cycles; i++ {
			size := small
			if isBig(i) {
				size = big
			}
			n.Submit(wire.Request{Client: 1, Seq: uint64(i + 1), Op: wire.OpWrite, Key: uint64(i), Val: make([]byte, size)})
			if c := n.cycles[n.started]; c != nil && c.own != nil {
				own = c.own
			}
			w.pump(t)
			w.advance(t, benchInterval)
			states := n.recent[n.Ordered()]
			root = states[len(states)-1]
		}
		return own, root
	}
	for _, tc := range []struct {
		name  string
		isBig func(i int) bool
	}{
		{"small", func(int) bool { return false }},
		{"alternating", func(i int) bool { return i%2 == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := live()
			own, root := run(t, tc.isBig)
			used := int64(live()) - int64(base)
			// The kept boxes share one small write; the chunks are the
			// own box's, with each neighbour's write, and a merged box's
			// of each size, each with the one it lies in and the one after.
			perOwn := int64(unsafe.Sizeof(ownBox{}) + unsafe.Sizeof(wire.Request{}) + small)
			merged := int64(unsafe.Sizeof(mergeBox4{}) + unsafe.Sizeof(mergeBox16{}))
			bound := 1<<10 + small + 2*boxChunk*(perOwn+merged)
			if used > bound {
				t.Fatalf("a kept own proposal and root state of %d cycles leave %d live bytes, bound %d", cycles, used, bound)
			}
			if len(own.Batches) != 1 || len(root.Batches) != 1 || root.Batches[0].Reqs[0].Key != own.Batches[0].Reqs[0].Key {
				t.Fatal("the kept boxes lost their write")
			}
		})
	}
}
