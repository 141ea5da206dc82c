package broadcast

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// seqNet is a leaf of Sequencers on a network the test steps by hand:
// messages wait in one FIFO queue until pump delivers them, a filter may
// drop any of them, a crashed node neither sends nor receives, and time
// moves only when the test ticks. A multicast queues one copy per
// destination, as the switch replicates it.
type seqNet struct {
	tb         testing.TB
	now        time.Duration
	ids        []wire.NodeID
	nodes      map[wire.NodeID]*Sequencer
	got        map[wire.NodeID][]string // deliveries and cuts, in order
	down       map[wire.NodeID]bool
	drop       func(from, to wire.NodeID, m wire.Message) bool
	queue      []seqMsg
	msgs       int
	multicast  bool // every node runs with Config.Multicast
	multicasts int  // Multicast calls made
}

type seqMsg struct {
	from, to wire.NodeID
	m        wire.Message
}

type seqEnv struct {
	net *seqNet
	id  wire.NodeID
	rng *rand.Rand
}

func (e *seqEnv) ID() wire.NodeID                      { return e.id }
func (e *seqEnv) Now() time.Duration                   { return e.net.now }
func (e *seqEnv) Rand() *rand.Rand                     { return e.rng }
func (e *seqEnv) After(time.Duration, engine.TimerTag) {}
func (e *seqEnv) Send(to wire.NodeID, m wire.Message) {
	if !e.net.down[e.id] {
		e.net.queue = append(e.net.queue, seqMsg{from: e.id, to: to, m: m})
	}
}
func (e *seqEnv) Multicast(to []wire.NodeID, m wire.Message) {
	e.net.multicasts++
	for _, d := range to {
		e.Send(d, m)
	}
}

const testTick = time.Millisecond

// newSeqNet builds a leaf of the given members with seats static seats.
func newSeqNet(tb testing.TB, seats int, members ...wire.NodeID) *seqNet {
	return newFlavourNet(tb, false, seats, members...)
}

// newFlavourNet is newSeqNet whose nodes multicast through the switch if
// multicast is set.
func newFlavourNet(tb testing.TB, multicast bool, seats int, members ...wire.NodeID) *seqNet {
	n := &seqNet{tb: tb, ids: members, nodes: map[wire.NodeID]*Sequencer{},
		got: map[wire.NodeID][]string{}, down: map[wire.NodeID]bool{}, multicast: multicast}
	for _, id := range members {
		n.start(id, Config{Members: members, Seats: seats, TickInterval: testTick})
	}
	n.pump()
	return n
}

// start (re)creates id's broadcaster with cfg, in the net's flavour.
func (n *seqNet) start(id wire.NodeID, cfg Config) {
	cfg.Multicast = n.multicast
	n.down[id] = false
	n.got[id] = nil
	env := &seqEnv{net: n, id: id, rng: rand.New(rand.NewSource(int64(id)))}
	n.nodes[id] = NewSequencer(env, cfg, Callbacks{
		Deliver: func(origin wire.NodeID, p wire.Message) {
			n.got[id] = append(n.got[id], fmt.Sprintf("%d:%d", origin, p.(*wire.JoinRequest).Nonce))
		},
		PeerFailed: func(p wire.NodeID) { n.got[id] = append(n.got[id], fmt.Sprintf("cut %d", p)) },
	})
}

// pump delivers queued messages, and those they cause, until none is left.
func (n *seqNet) pump() {
	for len(n.queue) > 0 {
		q := n.queue[0]
		n.queue = n.queue[1:]
		if n.down[q.to] || n.down[q.from] || (n.drop != nil && n.drop(q.from, q.to, q.m)) {
			continue
		}
		n.msgs++
		n.nodes[q.to].Handle(q.from, q.m)
	}
}

// run ticks every live node d of virtual time, pumping after each tick.
func (n *seqNet) run(d time.Duration) {
	for end := n.now + d; n.now < end; {
		n.now += testTick
		for _, id := range n.ids {
			if !n.down[id] {
				n.nodes[id].Tick()
			}
		}
		n.pump()
	}
}

func (n *seqNet) bcast(id wire.NodeID, seq uint64) {
	n.nodes[id].Broadcast(&wire.JoinRequest{From: id, Nonce: seq})
}

// flavours are the rows of a test that runs in both flavours: each
// member sent to alone, or through the switch.
var flavours = []struct {
	suffix    string
	multicast bool
}{{"", false}, {"-switch", true}}

// switched fails if the net is of the switch flavour and nothing was
// multicast: the rows would not differ.
func (n *seqNet) switched() {
	n.tb.Helper()
	if n.multicast && n.multicasts == 0 {
		n.tb.Fatal("the switch flavour multicast nothing")
	}
}

// agree fails unless every listed node holds exactly want.
func (n *seqNet) agree(want []string, ids ...wire.NodeID) {
	n.tb.Helper()
	for _, id := range ids {
		if !slices.Equal(n.got[id], want) {
			n.tb.Fatalf("node %d got %v, want %v", id, n.got[id], want)
		}
	}
}

// failAfterTest is the silence that cuts a member at testTick.
var failAfterTest = (&Config{TickInterval: testTick}).failAfter()

// heartbeatTest is the heartbeat interval at testTick.
var heartbeatTest = (&Config{TickInterval: testTick}).heartbeat()

// TestEveryMemberDelivers: a broadcast the sequencer stamps and one a
// member forwards reach every member, once each.
func TestEveryMemberDelivers(t *testing.T) {
	for _, f := range flavours {
		for _, seats := range []int{3, 5} {
			t.Run(fmt.Sprintf("leaf%d%s", seats, f.suffix), func(t *testing.T) {
				ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
				n := newFlavourNet(t, f.multicast, seats, ids...)
				n.run(testTick)
				last := ids[seats-1]
				n.bcast(0, 1)
				n.pump()
				n.bcast(last, 2)
				n.pump()
				n.agree([]string{"0:1", fmt.Sprintf("%d:2", last)}, ids...)
				n.switched()
			})
		}
	}
}

// TestBroadcastGoesOnAfterTheCut: a member of a leaf of three is cut and
// removed; the two left are a majority of two, and the broadcasts of
// both still commit.
func TestBroadcastGoesOnAfterTheCut(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	n.down[2] = true
	n.run(3 * failAfterTest)
	n.agree([]string{"cut 2"}, 0, 1)
	for _, id := range []wire.NodeID{0, 1} {
		n.nodes[id].RemovePeer(2)
	}
	n.bcast(0, 9)
	n.pump()
	n.bcast(1, 10)
	n.pump()
	n.agree([]string{"cut 2", "0:9", "1:10"}, 0, 1)
}

// TestOneDeliveryOrderAcrossOrigins: two members of a leaf of three
// broadcast in the same instant, and all three deliver the two in one
// order. Per-origin groups ordered each origin alone, and the members
// delivered the pair in different orders.
func TestOneDeliveryOrderAcrossOrigins(t *testing.T) {
	for _, f := range flavours {
		t.Run("leaf3"+f.suffix, func(t *testing.T) {
			n := newFlavourNet(t, f.multicast, 3, 0, 1, 2)
			n.bcast(1, 1)
			n.bcast(0, 2)
			n.pump()
			n.run(5 * testTick)
			if len(n.got[0]) != 2 {
				t.Fatalf("node 0 got %v, want two deliveries", n.got[0])
			}
			n.agree(n.got[0], 0, 1, 2)
			n.switched()
		})
	}
}

// TestMemberOfThreeDeliversOnReceipt: in a leaf of three seats a member
// delivers what an append brings it without waiting for a notice, and a
// forwarded broadcast costs four messages — the forward, two appends and
// one acknowledgement — with no notice.
func TestMemberOfThreeDeliversOnReceipt(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	before := n.msgs
	n.bcast(1, 7)
	n.pump()
	if got := n.msgs - before; got != 4 {
		t.Fatalf("a forwarded broadcast took %d messages, want 4", got)
	}
	n.agree([]string{"1:7"}, 0, 1, 2)
}

// dropAcks loses every acknowledgement while set.
func dropAcks(_, _ wire.NodeID, m wire.Message) bool {
	_, ok := m.(*wire.SeqAck)
	return ok
}

// TestLeafOfFiveWaitsForAMajority: in a leaf of five a member's copy and
// the sequencer's are not a majority, so nobody delivers before three
// members have acknowledged; every member counts the acknowledgements,
// which each member sends to every other.
func TestLeafOfFiveWaitsForAMajority(t *testing.T) {
	n := newSeqNet(t, 5, 0, 1, 2, 3, 4)
	n.run(testTick)
	n.drop = dropAcks
	n.bcast(1, 1)
	n.pump()
	n.agree(nil, 0, 1, 2, 3, 4)
	n.drop = nil
	n.run(5 * testTick)
	n.agree([]string{"1:1"}, 0, 1, 2, 3, 4)
}

// TestThreeSeatedOfFiveWaitForAMajority: delivery on receipt is bounded
// by the static seats, not by who is seated: three members of a leaf of
// five seats still wait for a majority's acknowledgements, because two
// more may be seated on the sequencer first.
func TestThreeSeatedOfFiveWaitForAMajority(t *testing.T) {
	n := newSeqNet(t, 5, 0, 1, 2)
	n.run(testTick)
	n.drop = dropAcks
	n.bcast(1, 1)
	n.pump()
	n.agree(nil, 0, 1, 2)
	n.drop = nil
	n.run(5 * testTick)
	n.agree([]string{"1:1"}, 0, 1, 2)
}

// TestLostAckIsRecovered: every acknowledgement of a broadcast is lost;
// the sequencer's next heartbeat shows its commit point behind what the
// members hold, they answer it, and the slot commits.
func TestLostAckIsRecovered(t *testing.T) {
	for _, seats := range []int{3, 5} {
		t.Run(fmt.Sprintf("leaf%d", seats), func(t *testing.T) {
			ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
			n := newSeqNet(t, seats, ids...)
			n.run(testTick)
			seq := ids[0]
			n.drop = dropAcks
			n.bcast(seq, 1)
			n.pump()
			n.agree(nil, seq)
			n.drop = nil
			n.run(5 * testTick) // one heartbeat
			n.agree([]string{fmt.Sprintf("%d:1", seq)}, ids...)
		})
	}
}

// TestIdleHeartbeatGetsNoAck: once a member holds what the sequencer
// holds and the sequencer's commit point covers it, a heartbeat could be
// answered only with what the sequencer knows, so it is not answered.
func TestIdleHeartbeatGetsNoAck(t *testing.T) {
	for _, seats := range []int{3, 5} {
		t.Run(fmt.Sprintf("leaf%d", seats), func(t *testing.T) {
			ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
			n := newSeqNet(t, seats, ids...)
			seq := ids[0]
			n.bcast(seq, 1)
			n.run(5 * testTick)
			s := n.nodes[seq]
			for _, id := range ids[1:] {
				n.nodes[id].Handle(seq, &s.fill(s.next[id]).full)
				if len(n.queue) != 0 {
					t.Fatalf("node %d answered an idle heartbeat with %T", id, n.queue[0].m)
				}
			}
		})
	}
}

// TestGapIsRejectedAndRefilled: an append lost on the way to one member
// leaves a gap the next append cannot fill; the member rejects it and
// the sequencer sends again from the gap. An append that lies beyond the
// log or whose previous slot conflicts is rejected even when it is shaped
// like a heartbeat that would go unanswered if it fit: every rejection is
// sent.
func TestGapIsRejectedAndRefilled(t *testing.T) {
	for _, seats := range []int{3, 5} {
		t.Run(fmt.Sprintf("leaf%d", seats), func(t *testing.T) {
			ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
			n := newSeqNet(t, seats, ids...)
			n.run(testTick)
			lost, rejects := false, 0
			n.drop = func(from, to wire.NodeID, m wire.Message) bool {
				switch v := m.(type) {
				case *wire.SeqAppend:
					if to == 2 && len(v.Entries) > 0 && !lost {
						lost = true
						return true
					}
				case *wire.SeqAck:
					if from == 2 && v.Reject {
						rejects++
					}
				}
				return false
			}
			n.bcast(0, 1)
			n.pump()
			n.agree(nil, 2)
			n.bcast(0, 2)
			n.pump()
			if seats > 3 {
				// The append waits for the member's acknowledgement of the
				// lost one; the next heartbeat shows the gap.
				n.run(heartbeatTest)
			}
			n.agree([]string{"0:1", "0:2"}, ids...)
			if rejects == 0 {
				t.Fatal("the gap was refilled without a rejection")
			}
			n.drop = nil
			s := n.nodes[2]
			last := s.lastIndex()
			for _, tc := range []struct {
				name string
				a    wire.SeqAppend
				hint uint64
			}{
				{"beyond the log", wire.SeqAppend{Epoch: s.epoch, Seq: last + 8, PrevEpoch: s.epoch, Commit: last + 7}, last},
				{"conflicting epoch", wire.SeqAppend{Epoch: s.epoch, Seq: last + 1, PrevEpoch: s.epoch + 1, Commit: last}, s.delivered},
			} {
				n.queue = nil
				s.Handle(0, &tc.a)
				if len(n.queue) != 1 {
					t.Fatalf("%s: the member sent %d messages, want the rejection", tc.name, len(n.queue))
				}
				k, ok := n.queue[0].m.(*wire.SeqAck)
				if !ok || !k.Reject || n.queue[0].to != 0 {
					t.Fatalf("%s: the member sent %+v to %d, want a rejection to the sequencer", tc.name, n.queue[0].m, n.queue[0].to)
				}
				if k.Match != tc.hint {
					t.Fatalf("%s: the rejection hints %d, want %d", tc.name, k.Match, tc.hint)
				}
			}
			n.queue = nil
		})
	}
}

// TestBacklogIsPumpedToTheEnd: a member that missed several appends'
// worth of slots is brought up to date within one heartbeat: the
// heartbeat shows the gap, the member rejects it, and each
// acknowledgement pulls the next maxAppendEntries slots.
func TestBacklogIsPumpedToTheEnd(t *testing.T) {
	for _, seats := range []int{3, 5} {
		t.Run(fmt.Sprintf("leaf%d", seats), func(t *testing.T) {
			ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
			n := newSeqNet(t, seats, ids...)
			n.run(testTick)
			lag := ids[seats-1]
			n.down[lag] = true
			const entries = 3*maxAppendEntries + 5
			for i := uint64(1); i <= entries; i++ {
				n.bcast(0, i)
				n.pump()
			}
			n.down[lag] = false
			rejected, chunks := false, 0
			n.drop = func(from, to wire.NodeID, m wire.Message) bool {
				switch v := m.(type) {
				case *wire.SeqAck:
					rejected = rejected || (from == lag && v.Reject)
				case *wire.SeqAppend:
					if rejected && to == lag && len(v.Entries) > 0 {
						chunks++
					}
				}
				return false
			}
			n.run(heartbeatTest)
			if got := len(n.got[lag]); got != entries {
				t.Fatalf("the lagging member delivered %d of %d broadcasts after one heartbeat (%d appends)", got, entries, chunks)
			}
			if want := (entries + maxAppendEntries - 1) / maxAppendEntries; chunks != want {
				t.Fatalf("the backlog took %d appends, want %d", chunks, want)
			}
			if s := n.nodes[0]; s.match[lag] != s.lastIndex() {
				t.Fatalf("the sequencer counts %d slots on the caught-up member, its log ends at %d", s.match[lag], s.lastIndex())
			}
		})
	}
}

// TestTrimResumesAfterALostAck: a member's acknowledgement is lost while
// the slot commits without it, so the sequencer's trim point, which waits
// for every member, stays one slot short; the member's acknowledgement
// of the next append brings it up to date.
func TestTrimResumesAfterALostAck(t *testing.T) {
	for _, seats := range []int{3, 5} {
		t.Run(fmt.Sprintf("leaf%d", seats), func(t *testing.T) {
			ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
			n := newSeqNet(t, seats, ids...)
			n.run(testTick)
			s := n.nodes[0]
			seq := uint64(0)
			bcast := func() {
				seq++
				n.bcast(0, seq)
				n.pump()
			}
			for i := 0; i < 3*retain; i++ {
				bcast()
			}
			if s.trim != s.ready-retain {
				t.Fatalf("trim point %d with %d committed; test premise broken", s.trim, s.ready)
			}
			slow := ids[seats-1]
			n.drop = func(from, _ wire.NodeID, m wire.Message) bool {
				_, ok := m.(*wire.SeqAck)
				return ok && from == slow
			}
			bcast()
			n.drop = nil
			if s.ready != s.lastIndex() || s.match[slow] != s.lastIndex()-1 || s.trim != s.ready-1-retain {
				t.Fatalf("committed %d, match[%d] %d, trim point %d, log ends at %d; test premise broken",
					s.ready, slow, s.match[slow], s.trim, s.lastIndex())
			}
			bcast()
			if seats > 3 {
				// The append to the slow member waits for its
				// acknowledgement of the last one, or the next heartbeat.
				n.run(heartbeatTest)
			}
			if s.match[slow] != s.lastIndex() {
				t.Fatalf("match[%d] is %d after the next append, the log ends at %d", slow, s.match[slow], s.lastIndex())
			}
			if s.trim != s.ready-retain {
				t.Fatalf("trim point %d with %d committed: held back by the lost acknowledgement", s.trim, s.ready)
			}
		})
	}
}

// TestForwardIsStampedOnce: a forward the sequencer sees twice — the
// origin re-forwards what it has not seen delivered — is stamped once.
func TestForwardIsStampedOnce(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	n.drop = func(from, _ wire.NodeID, m wire.Message) bool {
		a, ok := m.(*wire.SeqAppend)
		return ok && len(a.Entries) > 0 // the stamped copies are lost
	}
	n.bcast(1, 1)
	n.pump()
	n.drop = nil
	n.nodes[1].reforward()
	n.pump()
	n.run(10 * testTick)
	n.agree([]string{"1:1"}, 0, 1, 2)
}

// TestSequencerCrashKeepsWhatOneMemberDelivered: the sequencer (the
// lowest member) stamps an entry, one member delivers it and the
// sequencer crashes before anyone else has it. The next member opens an
// epoch, carries the entry over from the member that holds it and cuts
// the old sequencer after it, so both survivors deliver the entry, then
// the cut.
func TestSequencerCrashKeepsWhatOneMemberDelivered(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	n.drop = func(from, to wire.NodeID, m wire.Message) bool {
		_, ok := m.(*wire.SeqAppend)
		return ok && from == 0 && to == 1
	}
	n.bcast(0, 1)
	n.pump()
	n.agree([]string{"0:1"}, 2)
	n.agree(nil, 1)
	n.down[0] = true
	n.drop = nil
	n.run(3 * failAfterTest)
	n.agree([]string{"0:1", "cut 0"}, 1, 2)
	if l := wire.SeqLeader(n.nodes[2].epoch); l != 1 {
		t.Fatalf("node 2 follows %d, want 1", l)
	}
	n.bcast(2, 5)
	n.pump()
	n.agree([]string{"0:1", "cut 0", "2:5"}, 1, 2)
}

// TestSilentSequencerIsReplaced: the sequencer crashes with nothing in
// flight; the next member opens an epoch, cuts it, and sequences the
// survivors' broadcasts.
func TestSilentSequencerIsReplaced(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	n.bcast(0, 1)
	n.pump()
	n.agree([]string{"0:1"}, 0, 1, 2)
	n.down[0] = true
	n.run(3 * failAfterTest)
	if !n.nodes[1].sequencing() {
		t.Fatal("node 1 did not take over from the silent sequencer")
	}
	n.bcast(1, 2)
	n.pump()
	n.bcast(2, 3)
	n.pump()
	n.agree([]string{"0:1", "cut 0", "1:2", "2:3"}, 1, 2)
}

// TestSequencerWithoutQuorumStandsDown: a sequencer that has heard from
// no majority for failAfter cannot commit the cuts of its silent members;
// it stands for a new epoch instead and keeps asking its leaf-mates for
// their logs, the word that reaches them once the partition heals. One
// that hears a majority stays and cuts the silent member.
func TestSequencerWithoutQuorumStandsDown(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	seq := n.nodes[0]
	first := seq.epoch
	asks := 0
	n.drop = func(from, to wire.NodeID, m wire.Message) bool {
		if (from == 0) == (to == 0) {
			return false
		}
		if _, ok := m.(*wire.SeqEpoch); ok && from == 0 {
			asks++
		}
		return true
	}
	n.run(failAfterTest + 2*testTick)
	if seq.sequencing() || !seq.collecting || wire.SeqLeader(seq.epoch) != 0 || seq.epoch <= first {
		t.Fatalf("cut-off sequencer: sequencing=%v collecting=%v epoch %x (was %x)", seq.sequencing(), seq.collecting, seq.epoch, first)
	}
	if len(seq.cut) != 0 {
		t.Fatalf("cut-off sequencer cut %v", seq.cut)
	}
	before := asks
	n.run(2 * heartbeatTest)
	if asks <= before {
		t.Fatal("the candidate stopped asking its leaf-mates")
	}

	n = newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	seq = n.nodes[0]
	first = seq.epoch
	n.down[2] = true
	n.run(failAfterTest + 2*testTick)
	if !seq.sequencing() || seq.epoch != first || !seq.cut[2] {
		t.Fatalf("sequencer with a majority: sequencing=%v epoch %x (was %x) cut %v", seq.sequencing(), seq.epoch, first, seq.cut)
	}
}

// TestCarriedSlotsCommitWithTheNewEpoch: a slot carried over from an
// older epoch commits only with the new epoch's first entry, the cut
// that follows it — never by counting copies of the old slot alone.
func TestCarriedSlotsCommitWithTheNewEpoch(t *testing.T) {
	n := newSeqNet(t, 5, 0, 1, 2, 3, 4)
	n.run(testTick)
	n.drop = func(from, to wire.NodeID, m wire.Message) bool {
		_, ok := m.(*wire.SeqAppend)
		return ok && from == 0 && to != 1
	}
	n.bcast(0, 1) // on 0 and 1 only: not committed
	n.pump()
	n.down[0] = true
	n.drop = dropAcks // no slot of the new epoch can commit
	n.run(failAfterTest + 20*testTick)
	if l := wire.SeqLeader(n.nodes[4].epoch); l != 1 {
		t.Fatalf("node 4 follows %d, want 1", l)
	}
	n.agree(nil, 1, 2, 3, 4)
	n.drop = nil
	n.run(10 * testTick)
	n.agree([]string{"0:1", "cut 0"}, 1, 2, 3, 4)
}

// TestStaleSuffixIsReplaced: a member holds a slot an old sequencer
// stamped and nobody else has; the new epoch's log, gathered from a
// majority without it, fills that slot differently. The member's
// acknowledgements cover only what the new sequencer sent it, so the
// stale slot is neither counted nor delivered, and is replaced.
func TestStaleSuffixIsReplaced(t *testing.T) {
	n := newSeqNet(t, 5, 0, 1, 2, 3, 4)
	n.run(testTick)
	n.drop = func(from, to wire.NodeID, m wire.Message) bool {
		_, ok := m.(*wire.SeqAppend)
		return ok && from == 0 && to != 4
	}
	n.bcast(0, 1) // on 0 and 4 only
	n.pump()
	n.down[0] = true
	n.drop = func(from, to wire.NodeID, _ wire.Message) bool { return from == 4 || to == 4 }
	n.run(failAfterTest + 20*testTick) // 1 opens an epoch with 2 and 3
	n.drop = nil
	n.bcast(2, 9)
	n.run(20 * testTick)
	n.agree([]string{"cut 0", "2:9"}, 1, 2, 3, 4)
	s4 := n.nodes[4]
	for i := s4.base + 1; i <= s4.lastIndex(); i++ {
		if p, ok := s4.log[i-s4.base-1].Payload.(*wire.JoinRequest); ok && p.From == 0 {
			t.Fatalf("node 4 still holds the stale slot %d", i)
		}
	}
}

// TestAckCoversOnlyTheSequencersPrefix: a member holds a slot an old
// sequencer stamped and nobody else has, and the new sequencer's appends
// to it are lost, so all it hears are heartbeats. Its acknowledgements
// cover only what it holds as the new sequencer does, never the stale
// slot; once the appends get through, its log is the sequencer's.
func TestAckCoversOnlyTheSequencersPrefix(t *testing.T) {
	n := newSeqNet(t, 5, 0, 1, 2, 3, 4)
	n.run(testTick)
	n.drop = func(from, to wire.NodeID, m wire.Message) bool {
		_, ok := m.(*wire.SeqAppend)
		return ok && from == 0 && to != 4
	}
	n.bcast(0, 1) // on 0 and 4 only
	n.pump()
	stale := n.nodes[4].lastIndex()
	n.down[0] = true
	n.drop = func(from, to wire.NodeID, _ wire.Message) bool { return from == 4 || to == 4 }
	n.run(failAfterTest + 20*testTick) // 1 opens an epoch with 2 and 3
	n.drop = func(_, to wire.NodeID, m wire.Message) bool {
		a, ok := m.(*wire.SeqAppend)
		return ok && to == 4 && len(a.Entries) > 0
	}
	n.run(10 * heartbeatTest)
	s1, s4 := n.nodes[1], n.nodes[4]
	if !s1.sequencing() || s4.epoch != s1.epoch {
		t.Fatalf("node 4 is in epoch %x, node 1's is %x; test premise broken", s4.epoch, s1.epoch)
	}
	if m := s1.match[4]; m >= stale {
		t.Fatalf("the new sequencer counts node 4 up to slot %d, which covers its stale slot %d", m, stale)
	}
	n.drop = nil
	n.bcast(1, 9)
	n.run(10 * heartbeatTest)
	if s4.lastIndex() != s1.lastIndex() {
		t.Fatalf("node 4 holds %d slots, the sequencer %d: the stale slot was never replaced", s4.lastIndex(), s1.lastIndex())
	}
	for i := max(s1.base, s4.base) + 1; i <= s4.lastIndex(); i++ {
		if s4.epochAt(i) != s1.epochAt(i) {
			t.Fatalf("node 4's slot %d is of epoch %x, the sequencer's of %x", i, s4.epochAt(i), s1.epochAt(i))
		}
	}
	n.agree([]string{"cut 0", "1:9"}, 1, 2, 3, 4)
}

// TestStaleTrafficIsDropped: an append of an epoch older than the one a
// member promised, a forward of an origin's earlier incarnation and an
// acknowledgement from it change nothing.
func TestStaleTrafficIsDropped(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	seq, mem := n.nodes[0], n.nodes[1]
	old := mem.epoch - 1<<32
	mem.Handle(0, &wire.SeqAppend{Epoch: old, Seq: 1, Entries: []wire.SeqEntry{{Epoch: old, Origin: 0, OSeq: 1, Payload: &wire.JoinRequest{Nonce: 66}}}})
	n.pump()
	if mem.lastIndex() != seq.lastIndex() {
		t.Fatalf("a stale epoch's append changed the log: %d slots, sequencer %d", mem.lastIndex(), seq.lastIndex())
	}
	seq.RemovePeer(2)
	seq.AddPeer(2, 1) // node 2 rejoined: incarnation 1
	last := seq.lastIndex()
	seq.Handle(2, &wire.SeqForward{Epoch: seq.epoch, Origin: 2, OSeq: 1, Match: last, Payload: &wire.JoinRequest{From: 2, Nonce: 66}})
	seq.Handle(2, &wire.SeqAck{Epoch: seq.epoch, From: 2, Inc: 0, Match: last})
	if seq.lastIndex() != last || seq.match[2] != 0 {
		t.Fatalf("incarnation 0's traffic counted: %d slots (want %d), match %d", seq.lastIndex(), last, seq.match[2])
	}
	seq.Handle(2, &wire.SeqForward{Epoch: seq.epoch, Origin: 2, OSeq: 1<<32 | 1, Payload: &wire.JoinRequest{From: 2, Nonce: 67}})
	if seq.lastIndex() != last+1 {
		t.Fatal("incarnation 1's first forward was not stamped")
	}
}

// TestExpectedPeerReceivesEverything: a peer announced by Expect and
// seated by AddPeer once the log has moved on — far enough that it would
// have been trimmed — receives everything broadcast in between, pumped
// in parts, and the trim resumes once it has acknowledged. The switch
// flavour keeps the same log, so its rejoiner gets the same replay.
func TestExpectedPeerReceivesEverything(t *testing.T) {
	for _, f := range flavours {
		t.Run("leaf3"+f.suffix, func(t *testing.T) {
			n := newFlavourNet(t, f.multicast, 3, 0, 1, 2)
			n.down[2] = true
			n.run(3 * failAfterTest)
			for _, id := range []wire.NodeID{0, 1} {
				n.nodes[id].RemovePeer(2)
			}
			for i := uint64(1); i <= 2*retain; i++ {
				n.bcast(0, i) // trimmed behind the pair
			}
			n.pump()
			for _, id := range []wire.NodeID{0, 1} {
				n.nodes[id].Expect(2)
			}
			const between = 3 * maxAppendEntries
			for i := uint64(1000); i < 1000+between; i++ {
				n.bcast(1, i)
				n.pump()
			}
			n.start(2, Config{Members: []wire.NodeID{0, 1, 2}, Seats: 3, TickInterval: testTick,
				Incarnations: map[wire.NodeID]uint32{2: 1}})
			for _, id := range []wire.NodeID{0, 1} {
				n.nodes[id].AddPeer(2, 1)
			}
			n.run(10 * testTick)
			var want []string
			for i := 1000; i < 1000+between; i++ {
				want = append(want, fmt.Sprintf("1:%d", i))
			}
			if got := n.got[2]; len(got) < len(want) || !slices.Equal(got[len(got)-len(want):], want) {
				t.Fatalf("the seated peer got %d deliveries ending %v, want the %d broadcast since Expect", len(got), got[max(0, len(got)-3):], len(want))
			}
			for i := uint64(2000); i < 2000+2*retain; i++ {
				n.bcast(2, i)
				n.pump()
			}
			n.run(10 * testTick)
			if s := n.nodes[0]; s.base < between {
				t.Fatalf("the log kept %d slots from %d: the trim did not resume", len(s.log), s.base)
			}
			n.switched()
		})
	}
}

// TestFreshMemberOfAnUntrimmedLogReplaysAll pins the boundary of starting
// a fresh log at the trim point: while the sequencer has trimmed nothing,
// a member that restarts with an empty log receives every slot from the
// first, not a log that starts past the broadcasts it missed.
func TestFreshMemberOfAnUntrimmedLogReplaysAll(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	n.down[2] = true
	const missed = 50
	for i := uint64(1); i <= missed; i++ {
		n.bcast(0, i)
		n.pump()
	}
	if s := n.nodes[0]; s.trim != 0 || s.base != 0 {
		t.Fatalf("the sequencer trimmed to %d; test premise broken", s.trim)
	}
	n.start(2, Config{Members: []wire.NodeID{0, 1, 2}, Seats: 3, TickInterval: testTick})
	n.run(2 * heartbeatTest)
	if got := len(n.got[2]); got != missed {
		t.Fatalf("the restarted member delivered %d broadcasts, want all %d", got, missed)
	}
}

// TestRejoinAfterTheTrim: a member cut and removed from a long-running
// leaf rejoins with an empty log while the sequencer has trimmed far past
// the first slot. It starts its log at the trim point and follows from
// there: it neither waits for slots nobody holds nor replays the prefix.
func TestRejoinAfterTheTrim(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	for i := uint64(1); i <= 500; i++ {
		n.bcast(0, i)
		n.pump()
	}
	if n.nodes[0].base == 0 {
		t.Fatal("the sequencer never trimmed; test premise broken")
	}
	n.down[2] = true
	n.run(3 * failAfterTest)
	for _, id := range []wire.NodeID{0, 1} {
		n.nodes[id].RemovePeer(2)
	}
	for i := uint64(501); i <= 600; i++ {
		n.bcast(0, i)
		n.pump()
	}
	n.start(2, Config{Members: []wire.NodeID{0, 1, 2}, Seats: 3, TickInterval: testTick,
		Incarnations: map[wire.NodeID]uint32{2: 1}})
	for _, id := range []wire.NodeID{0, 1} {
		n.nodes[id].AddPeer(2, 1)
	}
	n.run(10 * testTick)
	n.bcast(0, 601)
	n.pump()
	got := n.got[2]
	if len(got) == 0 || got[len(got)-1] != "0:601" {
		t.Fatalf("the rejoined member delivered %d broadcasts, ending %v; want the last to be 0:601", len(got), got[max(0, len(got)-3):])
	}
	if len(got) > 3*retain {
		t.Fatalf("the rejoined member replayed %d broadcasts: its log did not start at the trim point", len(got))
	}
}

// TestRejoinerNoAppendReachedReplacesTheSequencer: a member rejoins a
// leaf whose log is trimmed far past the first slot, and the sequencer
// goes down before any append reaches it. The rejoiner outranks the other
// survivor and opens the next epoch with an empty log; it starts its log
// where the survivor's answer does, so both deliver the cut and what
// follows at the same slots.
func TestRejoinerNoAppendReachedReplacesTheSequencer(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	for i := uint64(1); i <= 500; i++ {
		n.bcast(0, i)
		n.pump()
	}
	n.down[1] = true
	n.run(3 * failAfterTest)
	for _, id := range []wire.NodeID{0, 2} {
		n.nodes[id].RemovePeer(1)
	}
	for i := uint64(501); i <= 600; i++ {
		n.bcast(wire.NodeID(i%2*2), i) // node 2's origin numbers are past its first
		n.pump()
	}
	if n.nodes[2].base == 0 {
		t.Fatal("node 2 never trimmed; test premise broken")
	}
	n.down[0] = true
	n.start(1, Config{Members: []wire.NodeID{0, 1, 2}, Seats: 3, TickInterval: testTick,
		Incarnations: map[wire.NodeID]uint32{1: 1}})
	n.nodes[2].AddPeer(1, 1)
	n.run(3 * failAfterTest)
	if !n.nodes[1].sequencing() {
		t.Fatal("the rejoiner did not take over; test premise broken")
	}
	n.bcast(2, 700)
	n.pump()
	n.bcast(1, 701)
	n.pump()
	n.run(heartbeatTest)
	s1, s2 := n.nodes[1], n.nodes[2]
	if s1.lastIndex() != s2.lastIndex() || s1.delivered != s2.delivered {
		t.Fatalf("logs split: node 1 holds %d slots and delivered %d, node 2 %d and %d",
			s1.lastIndex(), s1.delivered, s2.lastIndex(), s2.delivered)
	}
	for i := max(s1.base, s2.base) + 1; i <= s1.lastIndex(); i++ {
		if a, b := s1.log[i-s1.base-1], s2.log[i-s2.base-1]; a.Origin != b.Origin || a.OSeq != b.OSeq || a.Epoch != b.Epoch {
			t.Fatalf("slot %d differs: node 1 holds %+v, node 2 %+v", i, a, b)
		}
	}
	tail := []string{"cut 0", "2:700", "1:701"}
	for _, id := range []wire.NodeID{1, 2} {
		if got := n.got[id]; len(got) < len(tail) || !slices.Equal(got[len(got)-len(tail):], tail) {
			t.Fatalf("node %d delivered %v last, want %v", id, got[max(0, len(got)-len(tail)):], tail)
		}
	}
}

// TestSilentOriginIsStampedAfterAnEmptyLogTakeover: a member broadcasts
// and then stays silent while the log is trimmed past its broadcasts; a
// rejoiner no append reached opens the next epoch with an empty log. The
// silent member's next broadcast is stamped once, and both survivors
// deliver it at one slot: the new sequencer learns each origin's last
// number from the answers, not only from the suffix they carry.
func TestSilentOriginIsStampedAfterAnEmptyLogTakeover(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	n.run(testTick)
	for i := uint64(1); i <= 3; i++ {
		n.bcast(2, i)
		n.pump()
	}
	n.down[1] = true
	n.run(3 * failAfterTest)
	for _, id := range []wire.NodeID{0, 2} {
		n.nodes[id].RemovePeer(1)
	}
	for i := uint64(4); i <= 600; i++ {
		n.bcast(0, i)
		n.pump()
	}
	if s2 := n.nodes[2]; s2.base < 5 {
		t.Fatalf("node 2 trimmed to %d, not past its own broadcasts; test premise broken", s2.base)
	}
	n.down[0] = true
	n.start(1, Config{Members: []wire.NodeID{0, 1, 2}, Seats: 3, TickInterval: testTick,
		Incarnations: map[wire.NodeID]uint32{1: 1}})
	n.nodes[2].AddPeer(1, 1)
	n.run(3 * failAfterTest)
	if !n.nodes[1].sequencing() {
		t.Fatal("the rejoiner did not take over; test premise broken")
	}
	n.bcast(2, 700)
	n.pump()
	n.run(3 * failAfterTest)
	want := []string{"cut 0", "2:700"}
	for _, id := range []wire.NodeID{1, 2} {
		if got := n.got[id]; len(got) < len(want) || !slices.Equal(got[len(got)-len(want):], want) {
			t.Fatalf("node %d delivered %v last, want %v", id, got[max(0, len(got)-len(want)):], want)
		}
	}
	if s1, s2 := n.nodes[1], n.nodes[2]; s1.delivered != s2.delivered {
		t.Fatalf("node 1 delivered %d slots, node 2 %d", s1.delivered, s2.delivered)
	}
}

// TestSeatGraceDelaysTheCut: a peer seated by AddPeer hears of its seat
// later than its leaf-mates; the sequencer waits SeatGrace beyond
// failAfter for its first word.
func TestSeatGraceDelaysTheCut(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1)
	seq := n.nodes[0]
	seq.cfg.SeatGrace = failAfterTest
	seq.AddPeer(2, 0)
	n.nodes[1].AddPeer(2, 0)
	n.down[2] = true
	n.run(failAfterTest + failAfterTest/2)
	if slices.Contains(n.got[0], "cut 2") {
		t.Fatal("the seated peer was cut inside its grace")
	}
	n.run(failAfterTest)
	n.agree([]string{"cut 2"}, 0, 1)
}

// TestLogTrimBoundsMemory: the log keeps what is needed and no more.
func TestLogTrimBoundsMemory(t *testing.T) {
	n := newSeqNet(t, 3, 0, 1, 2)
	for i := uint64(1); i <= 2000; i++ {
		n.bcast(wire.NodeID(i%3), i)
		n.pump()
	}
	for _, id := range n.ids {
		if l := len(n.nodes[id].log); l > 3*retain {
			t.Fatalf("node %d keeps %d slots", id, l)
		}
	}
	n.agree(n.got[0], 1, 2)
}

// seqCeilings are the committed ceilings of BenchmarkSequencedBroadcast
// per leaf size: messages and heap objects per forwarded broadcast. In a
// leaf of three: the forward, two appends and the other member's
// acknowledgement (the origin's rides its next forward); the objects are
// the payload decoded at the sequencer and at the other member (the
// origin's append elides it), and a sixteenth each of a chunk of forwards,
// of fan-out boxes (one holds both appends) and of acknowledgements: 2.18
// (5 while each was an allocation of its own). In a leaf of five the
// origin sends its forward to all four others, the sequencer four appends
// without payloads, and each member its acknowledgement to the four
// others: 24 messages, and four payloads plus six chunk shares, 4.36 (10).
var seqCeilings = map[int]struct{ msgs, allocs float64 }{
	3: {msgs: 4, allocs: 2.5},
	5: {msgs: 24, allocs: 4.5},
}

// BenchmarkSequencedBroadcast is one broadcast forwarded by a member in a
// super-leaf of three and of five (paper §4.3), every message crossing
// encoded and decoded as a transport reader does, until every member has
// delivered it. msgs/entry and allocs/entry above seqCeilings fail it.
func BenchmarkSequencedBroadcast(b *testing.B) {
	for _, seats := range []int{3, 5} {
		b.Run(fmt.Sprintf("leaf%d", seats), func(b *testing.B) { benchSequenced(b, seats) })
	}
}

func benchSequenced(b *testing.B, seats int) {
	ids := []wire.NodeID{0, 1, 2, 3, 4}[:seats]
	n := newSeqNet(b, seats, ids...)
	dec := map[wire.NodeID]*wire.Decoder{}
	for _, id := range ids {
		dec[id] = new(wire.Decoder)
		n.nodes[id].cbs = Callbacks{} // deliveries are counted from the log
	}
	var buf []byte
	deliver := func() {
		for i := 0; i < len(n.queue); i++ {
			q := n.queue[i]
			buf = q.m.(wire.Encodable).AppendTo(buf[:0])
			m, _, err := dec[q.to].Decode(buf)
			if err != nil {
				b.Fatal(err)
			}
			n.nodes[q.to].Handle(q.from, m)
			dec[q.to].Reset()
			n.msgs++
		}
		clear(n.queue)
		n.queue = n.queue[:0]
	}
	seq := uint64(0)
	payload := make([]wire.JoinRequest, 0, 1)
	round := func() {
		seq++
		payload = append(payload[:0], wire.JoinRequest{From: 1, Nonce: seq})
		n.nodes[1].Broadcast(&payload[0])
		deliver()
	}
	for i := 0; i < 4*retain; i++ {
		round() // reach the steady state in which every round trims
	}
	msgs := n.msgs
	allocs := objectsPerRun(200, round)
	perEntry := float64(n.msgs-msgs) / 201 // objectsPerRun runs once to warm up
	for _, id := range ids {
		if d := n.nodes[id].delivered; d != n.nodes[0].lastIndex() {
			b.Fatalf("node %d delivered %d slots, the log holds %d", id, d, n.nodes[0].lastIndex())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(perEntry, "msgs/entry")
	b.ReportMetric(allocs, "allocs/entry")
	ceil := seqCeilings[seats]
	if perEntry > ceil.msgs {
		b.Fatalf("a broadcast takes %.1f messages, ceiling %v", perEntry, ceil.msgs)
	}
	if allocs > ceil.allocs {
		b.Fatalf("a broadcast allocates %.2f objects, ceiling %v", allocs, ceil.allocs)
	}
}

// objectsPerRun is testing.AllocsPerRun without the truncation to an
// integer: a chunk of messages counts by each message's share.
func objectsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
