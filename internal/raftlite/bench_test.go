package raftlite

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"canopus/internal/wire"
)

// wireNet is the benchmark's network: like net in raftlite_test.go, but
// every message crosses it encoded, and is decoded the way the live
// transport's readers do (a wire.Decoder per receiver, reset after each
// delivery), so the count includes what the codec allocates.
type wireNet struct {
	members map[wire.NodeID]*Raft
	dec     map[wire.NodeID]*wire.Decoder
	buf     []byte
	queue   []wireEnvelope
	msgs    int
}

type wireEnvelope struct {
	from, to wire.NodeID
	off, end int
}

func newWireNet(n int) *wireNet {
	w := &wireNet{members: map[wire.NodeID]*Raft{}, dec: map[wire.NodeID]*wire.Decoder{}}
	var peers []wire.NodeID
	for i := 0; i < n; i++ {
		peers = append(peers, wire.NodeID(i))
	}
	for _, id := range peers {
		id := id
		w.dec[id] = new(wire.Decoder)
		w.members[id] = New(Config{Group: 1, Self: id, Peers: peers, InitialLeader: 0}, IO{
			Send: func(to wire.NodeID, m wire.Message) {
				off := len(w.buf)
				w.buf = m.AppendTo(w.buf)
				w.queue = append(w.queue, wireEnvelope{from: id, to: to, off: off, end: len(w.buf)})
			},
			Now:  func() time.Duration { return 0 },
			Rand: rand.New(rand.NewSource(int64(id) + 3)),
		})
	}
	return w
}

func (w *wireNet) pump(tb testing.TB) {
	for i := 0; i < len(w.queue); i++ {
		e := w.queue[i]
		m, _, err := w.dec[e.to].Decode(w.buf[e.off:e.end])
		if err != nil {
			tb.Fatal(err)
		}
		w.members[e.to].Handle(e.from, m)
		w.dec[e.to].Reset()
		w.msgs++
	}
	w.queue, w.buf = w.queue[:0], w.buf[:0]
}

// broadcastCeilings are the committed ceilings of
// BenchmarkBroadcastRoundTrip per group size: messages and heap objects
// per committed entry. The messages are 3(n-1): append, reply and commit
// notice per follower; a notice is not answered (see onAppend). The
// objects of a group of three are the entry's payload (once at the
// proposer, once decoded at each follower), one AppendEntries shared by
// both followers, one allocation holding both commit notices (the
// followers' matchIndex differ at that moment) and two replies — notices
// and replies must be heap objects because the simulator delivers the
// pointers later. It was 26 objects (and 4.8 us, now 1.4) with
// per-follower appends, per-message decode structs and a log copied on
// every compaction, and 8 messages and 10 objects while notices were
// answered.
var broadcastCeilings = map[int]struct{ msgs, allocs float64 }{
	3: {msgs: 6, allocs: 8},
	5: {msgs: 12, allocs: 12},
}

// BenchmarkBroadcastRoundTrip is one reliable broadcast in a super-leaf of
// three and of five (paper §4.3): the leader proposes, and the entry is
// committed and known committed everywhere. msgs/entry is the protocol's
// cost in messages, allocs/entry in heap objects; either above
// broadcastCeilings fails the benchmark.
func BenchmarkBroadcastRoundTrip(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("group%d", n), func(b *testing.B) { benchBroadcast(b, n) })
	}
}

func benchBroadcast(b *testing.B, n int) {
	w := newWireNet(n)
	w.pump(b)
	seq := uint64(0)
	round := func() {
		seq++
		if err := w.members[0].Propose(&wire.Ping{From: 0, Seq: seq}); err != nil {
			b.Fatal(err)
		}
		w.pump(b)
	}
	for i := 0; i < 4*compactionMargin; i++ {
		round() // reach the steady state in which every round compacts
	}
	msgs := w.msgs
	allocs := testing.AllocsPerRun(200, round)
	perEntry := float64(w.msgs-msgs) / 201 // AllocsPerRun runs once to warm up
	last := wire.NodeID(n - 1)
	if got := w.members[last].CommitIndex(); got != w.members[0].LastIndex() {
		b.Fatalf("follower knows %d committed, leader's log ends at %d", got, w.members[0].LastIndex())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(perEntry, "msgs/entry")
	b.ReportMetric(allocs, "allocs/entry")
	ceil := broadcastCeilings[n]
	if perEntry > ceil.msgs {
		b.Fatalf("a broadcast takes %.1f messages, ceiling %v", perEntry, ceil.msgs)
	}
	if allocs > ceil.allocs {
		b.Fatalf("a broadcast allocates %.0f objects, ceiling %v", allocs, ceil.allocs)
	}
}
