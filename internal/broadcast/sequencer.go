package broadcast

import (
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// Sequencer is the software reliable broadcast of §4.3: one log per
// super-leaf, ordered by one member.
//
// Epochs. Each epoch is sequenced by the member it names (wire.SeqLeader).
// A member starting the leaf, or replacing a silent sequencer, opens an
// epoch by gathering the logs of a majority (wire.SeqEpoch); a member
// that answers accepts no older epoch. The candidate keeps the most
// up-to-date log — the one whose last slot has the highest epoch, then
// the longest, which holds every slot any member may have delivered —
// appends the failure cut of the sequencer it replaces and sends every
// member what it lacks. Origins forward again what they have not seen
// delivered; a sequencer stamps each broadcast once, by its origin number.
//
// Broadcast. An origin forwards its payload to the sequencer
// (wire.SeqForward), which stamps it with the next slot and sends it to
// every member (wire.SeqAppend). A member accepts an append only if the
// slot before it holds the entry of the epoch the append names, so its
// log is a prefix of the sequencer's, and acknowledges what it holds
// (wire.SeqAck). A slot is committed once a majority holds it and it is
// of the current epoch. With at most three seats the sequencer and any
// one member are such a majority: a member delivers on receipt, the
// sequencer at the first acknowledgement, and a forwarded broadcast
// costs four messages — the forward, two appends (the origin's without
// the payload it holds) and the other member's acknowledgement, the
// origin's own riding its next forward. In a larger leaf the origin
// forwards to every member, the appends carry only the order, one per
// member per round trip, and every member acknowledges to every other
// and counts the majority itself: the sequencer relays no payload and
// sends no commit notice.
//
// Failure. The sequencer cuts a member silent for failAfter by appending
// GroupClosed for its incarnation, so every survivor reports PeerFailed
// at the same slot; a member that has not heard from the sequencer for
// failAfter times its rank — the live members below it — opens the next
// epoch.
//
// Joins. Expect stops the log's trim point; AddPeer seats the peer, whose
// acknowledgement the trim point then waits for, and the sequencer sends
// it the log from there. A peer that has delivered nothing starts its log
// at that point.
//
// Switch. With Config.Multicast a forward, an acknowledgement or a log
// request goes to the switch once, which replicates it to every member it
// is for (fan); appends and everything else are unchanged.
type Sequencer struct {
	env   engine.Env
	cfg   Config
	cbs   Callbacks
	self  wire.NodeID
	stats *Stats

	members  []wire.NodeID // seated, ascending, self included
	inc      map[wire.NodeID]uint32
	closed   map[wire.NodeID]bool   // failure cut delivered
	early    map[wire.NodeID]uint32 // a cut delivered for an incarnation not yet added
	owed     []wire.NodeID          // cuts to report at the next settle
	expected map[wire.NodeID]bool   // Expect'ed, not yet added

	// epoch is the one this member has promised, 0 until it hears of one;
	// collecting is set while it is the epoch's candidate, floor is the
	// epoch it promised before, and following is set once an append of
	// epoch arrived.
	epoch      uint64
	collecting bool
	floor      uint64
	following  bool
	lastHeard  time.Duration // last word from the sequencer
	lastSent   time.Duration // last message to the sequencer

	// The log: slot base+1+i is log[i]; the slots up to base are dropped,
	// slot base was stamped in baseEpoch.
	log       []wire.SeqEntry
	base      uint64
	baseEpoch uint64
	verified  uint64 // prefix known to equal the sequencer's in this epoch
	ready     uint64 // prefix known committed
	delivered uint64 // prefix handed up
	trim      uint64 // slots every member holds, as the sequencer published
	inSettle  bool
	oseqs     map[wire.NodeID]uint64 // highest origin number delivered

	// Own broadcasts not yet delivered, and since when the first has
	// waited; in a leaf of more than three seats, the payloads others
	// forwarded this member, until placed.
	oseq         uint64
	pending      []ownEntry
	pendingSince time.Duration
	held         map[wire.NodeID][]ownEntry

	// The sequencer's view of its members (match is a member's count of
	// the others' acknowledgements too).
	stamped map[wire.NodeID]uint64 // highest origin number in the log
	cut     map[wire.NodeID]bool   // failure cut in the log
	next    map[wire.NodeID]uint64 // next slot to send
	match   map[wire.NodeID]uint64 // slots acknowledged in this epoch
	heard   map[wire.NodeID]time.Duration
	sentAt  map[wire.NodeID]time.Duration

	// The candidate's gathered logs and the sequencer it replaces.
	answers   map[wire.NodeID]*wire.SeqEpoch
	replacing wire.NodeID

	dst []wire.NodeID // fan's destinations, reused

	// What the sequencer sends every cycle comes out of chunks.
	acks     chunk[wire.SeqAck]
	forwards chunk[wire.SeqForward]
	boxes    chunk[fanBox]
}

// chunkSize is how many messages of one type a chunk holds.
const chunkSize = 16

// chunk hands out the elements of arrays it allocates chunkSize at a time,
// each element once: a message given to engine.Env.Send is the driver's
// from then on, and the simulator delivers the pointer later, so nothing is
// reused. An array lives until its last message is dropped. That pins
// what the messages point to, a payload, no longer than the log keeps it:
// retain slots, more than one chunk spans.
type chunk[T any] struct{ free []T }

func (c *chunk[T]) next() *T {
	if len(c.free) == 0 {
		c.free = make([]T, chunkSize)
	}
	v := &c.free[0]
	c.free = c.free[1:]
	return v
}

type ownEntry struct {
	oseq    uint64
	payload wire.Message
}

// maxAppendEntries bounds one append; a longer backlog goes in several,
// each acknowledgement pulling the next.
const maxAppendEntries = 64

// retain is how far the trim point stays below what every member holds.
const retain = 64

// NewSequencer builds the sequenced broadcaster for one node. env must
// belong to a member listed in cfg.Members. The lowest member opens the
// first epoch.
func NewSequencer(env engine.Env, cfg Config, cbs Callbacks) *Sequencer {
	cfg.fill()
	s := &Sequencer{
		env: env, cfg: cfg, cbs: cbs, self: env.ID(), stats: cbs.Stats,
		members:  slices.Sorted(slices.Values(cfg.Members)),
		inc:      make(map[wire.NodeID]uint32),
		closed:   make(map[wire.NodeID]bool),
		early:    make(map[wire.NodeID]uint32),
		expected: make(map[wire.NodeID]bool),
		oseqs:    make(map[wire.NodeID]uint64),
		held:     make(map[wire.NodeID][]ownEntry),
		stamped:  make(map[wire.NodeID]uint64),
		cut:      make(map[wire.NodeID]bool),
		next:     make(map[wire.NodeID]uint64),
		match:    make(map[wire.NodeID]uint64),
		heard:    make(map[wire.NodeID]time.Duration),
		sentAt:   make(map[wire.NodeID]time.Duration),
	}
	if s.stats == nil {
		s.stats = new(Stats)
	}
	for _, m := range s.members {
		s.inc[m] = cfg.Incarnations[m]
	}
	s.oseq = uint64(s.inc[s.self]) << 32
	now := env.Now()
	s.lastHeard, s.lastSent, s.pendingSince = now, now, now
	if len(s.members) > 0 && s.members[0] == s.self {
		s.startEpoch()
	}
	return s
}

// quorum is a majority of the seated members: what commits a slot on the
// sequencer and what an epoch change gathers. Members change at cycle
// boundaries, identically on every member; and an evicted leaf re-forms
// one member at a time, the first committing alone the cycle that seats
// the second.
func (s *Sequencer) quorum() int { return len(s.members)/2 + 1 }

// onReceipt reports whether the sequencer and any one member are a
// majority of every membership the leaf can ever have: it has at most
// three static seats. Not the seats taken now: in a leaf that may grow
// past three, members seated on the sequencer first make the pair a
// minority.
func (s *Sequencer) onReceipt() bool { return s.cfg.Seats > 0 && s.cfg.Seats <= 3 }

// direct reports whether origins send their payloads to every member
// themselves (a leaf of more than three seats): relaying them all would
// give the sequencer a share of the bytes that grows with the leaf, while
// in a leaf of three the relay keeps a broadcast at four messages.
func (s *Sequencer) direct() bool { return !s.onReceipt() }

// leader is the member this one takes for the sequencer: the lowest
// member until it has heard of an epoch.
func (s *Sequencer) leader() wire.NodeID {
	if s.epoch != 0 {
		return wire.SeqLeader(s.epoch)
	}
	if len(s.members) == 0 {
		return wire.NoNode
	}
	return s.members[0]
}

func (s *Sequencer) sequencing() bool {
	return s.epoch != 0 && !s.collecting && wire.SeqLeader(s.epoch) == s.self
}

func (s *Sequencer) member(id wire.NodeID) bool {
	_, ok := slices.BinarySearch(s.members, id)
	return ok
}

func (s *Sequencer) lastIndex() uint64 { return s.base + uint64(len(s.log)) }

// epochAt is the epoch that stamped slot i, which must be base or later.
func (s *Sequencer) epochAt(i uint64) uint64 {
	if i == s.base {
		return s.baseEpoch
	}
	return s.log[i-s.base-1].Epoch
}

// truncate drops the slots after i.
func (s *Sequencer) truncate(i uint64) {
	keep := int(i - s.base)
	clear(s.log[keep:])
	s.log = s.log[:keep]
}

// put writes e at slot idx, the next one or one already held: a held slot
// of the same epoch holds the same entry, and one of another epoch is
// replaced with everything after it. Delivered slots never differ.
func (s *Sequencer) put(idx uint64, e wire.SeqEntry) {
	if idx <= s.base {
		return
	}
	if idx <= s.lastIndex() {
		if idx <= s.delivered || s.epochAt(idx) == e.Epoch {
			return
		}
		s.truncate(idx - 1)
	}
	s.log = append(s.log, e)
}

// Broadcast sends payload to the leaf: stamped at once on the sequencer,
// forwarded otherwise, and kept until delivered here, to be forwarded
// again to a new sequencer.
func (s *Sequencer) Broadcast(payload wire.Message) {
	s.oseq++
	if len(s.pending) == 0 {
		s.pendingSince = s.env.Now()
	}
	s.pending = append(s.pending, ownEntry{oseq: s.oseq, payload: payload})
	switch {
	case s.sequencing():
		s.stamp(wire.SeqEntry{Epoch: s.epoch, Origin: s.self, OSeq: s.oseq, Payload: payload})
		s.replicate(wire.NoNode, false)
		if s.quorum() == 1 {
			// A leaf of one: committed, and delivered, at once.
			s.commit(s.lastIndex(), 1, 1, s.self)
			s.settle()
		}
	case s.following:
		s.forward(s.oseq, payload)
	}
}

// forward sends an own broadcast to the sequencer, and in a leaf of more
// than three seats to every other member too.
func (s *Sequencer) forward(oseq uint64, payload wire.Message) {
	f := s.forwards.next()
	*f = wire.SeqForward{Epoch: s.epoch, Origin: s.self, OSeq: oseq, Match: s.verified, Payload: payload}
	s.lastSent = s.env.Now()
	s.dst = s.dst[:0]
	for _, m := range s.members {
		if m == s.leader() || (s.direct() && m != s.self && !s.closed[m]) {
			s.dst = append(s.dst, m)
		}
	}
	s.fan(f, &s.stats.Forwards)
}

// fan sends m to every member in s.dst and counts each in c: through the
// switch in one multicast when Config.Multicast is set, one send each
// otherwise.
func (s *Sequencer) fan(m wire.Message, c *atomic.Uint64) {
	c.Add(uint64(len(s.dst)))
	if s.cfg.Multicast {
		s.env.Multicast(s.dst, m)
		return
	}
	for _, d := range s.dst {
		s.env.Send(d, m)
	}
}

// reforward forwards every undelivered own broadcast again; the
// sequencer stamps those it has not.
func (s *Sequencer) reforward() {
	s.pendingSince = s.env.Now()
	for _, p := range s.pending {
		s.forward(p.oseq, p.payload)
	}
}

// stamp appends e to the sequencer's log.
func (s *Sequencer) stamp(e wire.SeqEntry) {
	s.log = append(s.log, e)
	s.note(e)
	s.verified = s.lastIndex()
}

// note records what a sequencer must know of an entry in its log: the
// origin number it carries and the failure cut it is.
func (s *Sequencer) note(e wire.SeqEntry) {
	s.stamped[e.Origin] = max(s.stamped[e.Origin], e.OSeq)
	if gc, ok := e.Payload.(*wire.GroupClosed); ok && s.member(gc.Origin) && s.inc[gc.Origin] == gc.Inc {
		s.cut[gc.Origin] = true
	}
}

// fanBox is one fan-out in one allocation: the append the members share
// and, when some of them hold payloads it carries, a copy without them.
type fanBox struct {
	full, own   wire.SeqAppend
	one, ownOne [1]wire.SeqEntry
}

// fill builds the append that starts at slot next.
func (s *Sequencer) fill(next uint64) *fanBox {
	next = max(next, s.base+1)
	box := s.boxes.next()
	box.full = wire.SeqAppend{
		Epoch: s.epoch, Seq: next, PrevEpoch: s.epochAt(next - 1), Commit: s.ready, Trim: s.trim,
	}
	if last := s.lastIndex(); next <= last {
		// A copy: the log is trimmed and truncated in place, and the
		// simulator delivers this message later.
		box.full.Entries = append(box.one[:0], s.log[next-s.base-1:min(last, next+maxAppendEntries-1)-s.base]...)
	}
	return box
}

// to is the append for member m out of box: unless whole is set, without
// the payloads m holds — in a leaf of three, its own (origin is the member
// whose forward was just stamped); in a larger leaf every payload but the
// sequencer's own, which their origins forwarded to every member.
func (s *Sequencer) to(m, origin wire.NodeID, box *fanBox, whole bool) *wire.SeqAppend {
	b := &box.full
	if whole || len(b.Entries) == 0 || (!s.direct() && m != origin) {
		return b
	}
	if box.own.Entries == nil {
		box.own = box.full
		box.own.Entries = append(box.ownOne[:0], b.Entries...)
		inc := s.inc[m]
		for i := range box.own.Entries {
			e := &box.own.Entries[i]
			if s.direct() && e.Origin != s.self || e.Origin == m && uint32(e.OSeq>>32) == inc {
				e.Payload = nil
			}
		}
	}
	return &box.own
}

// replicate sends every member what it lacks. Members at one next slot —
// the normal case — share one append, which leaves out the payloads they
// hold unless all is set (sent again after a heartbeat or a new epoch, an
// append is whole). In a leaf of more than three seats a member with an
// append on its way is passed over unless all is set: its acknowledgement
// pulls what accumulated since, in one append.
func (s *Sequencer) replicate(origin wire.NodeID, all bool) {
	var box *fanBox
	for _, m := range s.members {
		if m == s.self || s.cut[m] || !all && s.direct() && s.next[m] > s.match[m]+1 {
			continue
		}
		if box == nil || max(s.next[m], s.base+1) != box.full.Seq {
			box = s.fill(s.next[m])
		}
		s.send(m, s.to(m, origin, box, all))
	}
}

func (s *Sequencer) send(m wire.NodeID, a *wire.SeqAppend) {
	if n := uint64(len(a.Entries)); n > 0 {
		// Optimistic: the next append starts after this one; a rejection
		// moves the member back.
		s.next[m] = a.Seq + n
		s.stats.Appends.Add(1)
	} else {
		s.stats.Heartbeats.Add(1)
	}
	s.sentAt[m] = s.env.Now()
	s.env.Send(m, a)
}

// Handle consumes the sequenced broadcast's messages and reports whether
// m was one; those from a node that is not a member are dropped. m is
// lent for the call (engine.Machine.Recv's rule): only the payloads it
// carries, which are immutable, are kept.
func (s *Sequencer) Handle(from wire.NodeID, m wire.Message) bool {
	switch m.(type) {
	case *wire.SeqForward, *wire.SeqAppend, *wire.SeqAck, *wire.SeqEpoch:
	default:
		return false
	}
	if !s.member(from) {
		return true
	}
	switch v := m.(type) {
	case *wire.SeqForward:
		s.onForward(from, v)
	case *wire.SeqAppend:
		s.onAppend(from, v)
	case *wire.SeqAck:
		s.onAck(from, v)
	case *wire.SeqEpoch:
		s.onEpoch(from, v)
	}
	s.settle()
	return true
}

func (s *Sequencer) onForward(from wire.NodeID, f *wire.SeqForward) {
	switch {
	case f.Origin != from || uint32(f.OSeq>>32) != s.inc[from]: // forged, or an earlier incarnation's
	case !s.sequencing():
		if s.direct() && f.OSeq > s.oseqs[from] {
			s.held[from] = append(s.held[from], ownEntry{oseq: f.OSeq, payload: f.Payload})
		}
	case f.Epoch == s.epoch && !s.cut[from]:
		s.heard[from] = s.env.Now()
		s.acked(from, f.Match)
		// One past the last stamped of the origin's current incarnation.
		if f.OSeq == max(uint64(s.inc[from])<<32+1, s.stamped[from]+1) {
			s.stamp(wire.SeqEntry{Epoch: s.epoch, Origin: from, OSeq: f.OSeq, Payload: f.Payload})
			s.replicate(from, false)
		}
		s.commit(s.lastIndex(), 1, s.quorum(), s.self)
	}
}

func (s *Sequencer) acked(m wire.NodeID, match uint64) {
	match = min(match, s.lastIndex())
	s.match[m] = max(s.match[m], match)
	s.next[m] = max(s.next[m], match+1)
}

func (s *Sequencer) onAck(from wire.NodeID, k *wire.SeqAck) {
	if k.Epoch != s.epoch || k.From != from || k.Inc != s.inc[from] || s.closed[from] || s.cut[from] {
		return
	}
	if !s.sequencing() {
		// In a leaf of more than three seats members acknowledge to each
		// other; a member counts against the static seats, not the
		// members it has seated, for the sequencer may have seated more.
		if !k.Reject && s.following && k.Match > s.match[from] {
			s.match[from] = k.Match
			s.commit(s.verified, 2, max(s.cfg.Seats/2+1, s.quorum()), s.leader())
		}
		return
	}
	s.heard[from] = s.env.Now()
	if k.Reject {
		next := s.next[from] - 1
		if k.Match+1 < s.next[from] {
			next = k.Match + 1
		}
		s.next[from] = max(next, s.base+1)
		s.send(from, &s.fill(s.next[from]).full)
		return
	}
	s.acked(from, k.Match)
	s.commit(s.lastIndex(), 1, s.quorum(), s.self)
	if s.next[from] == s.match[from]+1 && s.next[from] <= s.lastIndex() {
		s.send(from, s.to(from, wire.NoNode, s.fill(s.next[from]), false))
	}
}

// commit moves the commit point to the last slot up to top of this epoch
// that q members hold: n counted already (this one, and skip), plus those
// whose acknowledgement covers it. Slots of earlier epochs commit with it.
func (s *Sequencer) commit(top uint64, n, q int, skip wire.NodeID) {
	for idx := top; idx > s.ready && idx > s.base; idx-- {
		if s.epochAt(idx) != s.epoch {
			return
		}
		c := n
		for _, m := range s.members {
			if m != s.self && m != skip && !s.cut[m] && s.match[m] >= idx {
				c++
			}
		}
		if c >= q {
			s.ready = idx
			return
		}
	}
}

// fits reports whether a's entries continue this member's log.
func (s *Sequencer) fits(a *wire.SeqAppend) bool {
	prev := a.Seq - 1
	switch {
	case prev > s.lastIndex():
		return false
	case prev < s.base:
		return true // every member holds the trimmed slots alike
	}
	return s.epochAt(prev) == a.PrevEpoch
}

func (s *Sequencer) onAppend(from wire.NodeID, a *wire.SeqAppend) {
	switch {
	case from != wire.SeqLeader(a.Epoch):
		return
	case a.Epoch > s.epoch:
		s.adopt(a.Epoch)
	case a.Epoch < s.epoch && !(s.collecting && a.Epoch >= s.floor):
		return
	case a.Epoch < s.epoch:
		// This member's candidacy has not completed, and the sequencer it
		// meant to replace still sequences: it follows again.
		s.adopt(a.Epoch)
	}
	s.lastHeard = s.env.Now()
	prev := a.Seq - 1
	if !s.fits(a) {
		if s.delivered > 0 || prev > a.Trim {
			hint := s.delivered
			if prev > s.lastIndex() {
				hint = s.lastIndex()
			}
			s.ack(hint, true, false)
			return
		}
		s.rebase(prev, a.PrevEpoch)
	}
	for i, e := range a.Entries {
		if e.Payload == nil {
			if e.Payload = s.payload(e.Origin, e.OSeq); e.Payload == nil {
				s.ack(prev+uint64(i), true, false) // not held after all: send it whole
				return
			}
		}
		s.put(prev+1+uint64(i), e)
	}
	covered := prev + uint64(len(a.Entries))
	s.verified = max(s.verified, covered)
	s.ready = max(s.ready, min(a.Commit, s.verified))
	if s.onReceipt() && covered >= s.base && s.epochAt(covered) == a.Epoch {
		s.ready = max(s.ready, covered) // on the sequencer and here
	}
	s.trim = max(s.trim, a.Trim)
	if !s.following {
		s.following = true
		s.reforward()
	}
	if len(a.Entries) == 0 && a.Commit >= covered {
		return // a heartbeat whose answer the sequencer knows
	}
	switch {
	case s.direct():
		s.ack(covered, false, true)
		s.commit(s.verified, 2, max(s.cfg.Seats/2+1, s.quorum()), s.leader())
	case len(a.Entries) == 0 || !s.allOwn(a.Entries):
		s.ack(covered, false, false)
	}
}

// rebase starts the log of a member that has delivered nothing after slot
// prev, of epoch prevEpoch: what lies below concerns cycles the join
// protocol's state transfer covers.
func (s *Sequencer) rebase(prev, prevEpoch uint64) {
	s.truncate(s.base)
	s.base, s.baseEpoch = prev, prevEpoch
	s.delivered, s.ready = prev, max(s.ready, prev)
	s.trim = max(s.trim, prev)
}

// allOwn reports whether es holds only this member's broadcasts and a
// third live member will acknowledge them, so this one need not: its
// next forward does.
func (s *Sequencer) allOwn(es []wire.SeqEntry) bool {
	for i := range es {
		if es[i].Origin != s.self {
			return false
		}
	}
	for _, m := range s.members {
		if m != s.self && m != s.leader() && !s.closed[m] {
			return true
		}
	}
	return false
}

// ack acknowledges match to the sequencer, or with all set (in a leaf of
// more than three seats) to every member.
func (s *Sequencer) ack(match uint64, reject, all bool) {
	s.lastSent = s.env.Now()
	k := s.acks.next()
	*k = wire.SeqAck{Epoch: s.epoch, From: s.self, Inc: s.inc[s.self], Match: match, Reject: reject}
	s.dst = s.dst[:0]
	for _, m := range s.members {
		if m != s.self && (all && !s.closed[m] || !all && m == s.leader()) {
			s.dst = append(s.dst, m)
		}
	}
	s.fan(k, &s.stats.Acks)
}

// payload is origin's broadcast oseq if this member holds it: its own
// undelivered broadcast, or one its origin forwarded it.
func (s *Sequencer) payload(origin wire.NodeID, oseq uint64) wire.Message {
	list := s.pending
	if origin != s.self {
		list = s.held[origin]
	}
	for _, p := range list {
		if p.oseq == oseq {
			return p.payload
		}
	}
	return nil
}

// adopt promises epoch e: nothing of an older one is accepted from now on.
func (s *Sequencer) adopt(e uint64) {
	s.epoch = e
	s.collecting, s.following = false, false
	clear(s.match)
	s.answers = nil
	s.verified = 0
	s.lastHeard = s.env.Now()
}

func (s *Sequencer) onEpoch(from wire.NodeID, m *wire.SeqEpoch) {
	if wire.SeqLeader(m.Epoch) == s.self {
		if s.collecting && m.Epoch == s.epoch && m.From == from {
			s.answers[from] = m
			s.tryComplete()
		}
		return
	}
	if from != wire.SeqLeader(m.Epoch) || m.Epoch < s.epoch || s.closed[from] {
		return
	}
	if m.Epoch > s.epoch {
		// A live sequencer is not replaced: neither by itself nor at the
		// word of a member that stopped hearing it before this one did.
		if s.sequencing() || (s.epoch != 0 && !s.collecting && s.env.Now()-s.lastHeard < s.cfg.failAfter()/2) {
			return
		}
		s.adopt(m.Epoch)
	}
	s.lastHeard = s.env.Now()
	start := max(s.base+1, min(m.Commit, s.lastIndex())+1)
	answer := &wire.SeqEpoch{Epoch: m.Epoch, From: s.self, Commit: s.delivered, Seq: start,
		PrevEpoch: s.epochAt(start - 1), Entries: slices.Clone(s.log[start-s.base-1:])}
	for _, o := range slices.Sorted(maps.Keys(s.oseqs)) {
		answer.Delivered = append(answer.Delivered, wire.OriginSeq{Origin: o, OSeq: s.oseqs[o]})
	}
	s.stats.Epochs.Add(1)
	s.env.Send(from, answer)
}

// startEpoch opens the next epoch with this member as its candidate.
func (s *Sequencer) startEpoch() {
	s.replacing, s.floor = s.leader(), s.epoch
	s.adopt(wire.SeqEpochOf(uint32(s.epoch>>32)+1, s.self))
	s.collecting = true
	s.answers = make(map[wire.NodeID]*wire.SeqEpoch)
	s.requestLogs()
	s.tryComplete()
}

func (s *Sequencer) requestLogs() {
	s.lastSent = s.env.Now()
	req := &wire.SeqEpoch{Epoch: s.epoch, From: s.self, Commit: s.delivered}
	s.dst = s.dst[:0]
	for _, m := range s.members {
		if m != s.self && !s.closed[m] {
			s.dst = append(s.dst, m)
		}
	}
	s.fan(req, &s.stats.Epochs)
}

// tryComplete finishes the epoch change once a majority has answered: the
// candidate keeps the most up-to-date log, cuts the sequencer it replaces
// and starts sequencing.
func (s *Sequencer) tryComplete() {
	if !s.collecting || len(s.answers)+1 < s.quorum() {
		return
	}
	last := s.lastIndex()
	bestEpoch, bestLast := s.epochAt(last), last
	var best *wire.SeqEpoch
	for _, m := range s.members {
		a := s.answers[m]
		if a == nil {
			continue
		}
		aLast, aEpoch := a.Seq-1, a.PrevEpoch
		if n := len(a.Entries); n > 0 {
			aLast, aEpoch = aLast+uint64(n), a.Entries[n-1].Epoch
		}
		if aEpoch > bestEpoch || (aEpoch == bestEpoch && aLast > bestLast) {
			best, bestEpoch, bestLast = a, aEpoch, aLast
		}
	}
	if best != nil {
		if prev := best.Seq - 1; prev > last {
			// The answer's member trimmed what this one never received: a
			// joiner no append reached starts its log there; one that has
			// delivered some was cut (the trim waits for the rest) and
			// stands by rather than sequence a log that skips slots.
			if s.delivered > 0 {
				return
			}
			s.rebase(prev, best.PrevEpoch)
		}
		for i, e := range best.Entries {
			s.put(best.Seq+uint64(i), e)
		}
		if s.lastIndex() > bestLast && bestLast >= s.delivered {
			s.truncate(bestLast) // a stale suffix of an older epoch
		}
	}
	s.collecting = false
	// Each origin's last stamped number: what any member delivered — the
	// slots trimmed below this log's start included, which a candidate
	// that starts its log at an answer's never saw — and the suffix.
	s.stamped, s.cut = maps.Clone(s.oseqs), maps.Clone(s.closed)
	for _, a := range s.answers {
		for _, d := range a.Delivered {
			s.stamped[d.Origin] = max(s.stamped[d.Origin], d.OSeq)
		}
	}
	for i := s.delivered + 1; i <= s.lastIndex(); i++ {
		s.note(s.log[i-s.base-1])
	}
	for _, m := range s.members {
		from := s.delivered
		if a := s.answers[m]; a != nil {
			from = a.Commit
		}
		s.next[m] = min(max(from+1, s.base+1), s.lastIndex()+1)
		s.match[m], s.heard[m] = 0, s.env.Now()
	}
	s.answers = nil
	// The cut doubles as the epoch's first entry, which commits the slots
	// carried over; with no one to cut, an empty one does.
	gc := &wire.GroupClosed{Origin: wire.NoNode}
	if r := s.replacing; r != s.self && s.member(r) && !s.cut[r] {
		gc = &wire.GroupClosed{Origin: r, Inc: s.inc[r]}
	}
	s.stamp(wire.SeqEntry{Epoch: s.epoch, Origin: s.self, Payload: gc})
	for _, p := range s.pending {
		if p.oseq > s.stamped[s.self] {
			s.stamp(wire.SeqEntry{Epoch: s.epoch, Origin: s.self, OSeq: p.oseq, Payload: p.payload})
		}
	}
	s.replicate(wire.NoNode, true)
}

// settle delivers the committed slots in order and trims the log.
// Delivery may re-enter the broadcaster (Broadcast, AddPeer, RemovePeer):
// the loop reads its state afresh on every slot, and a nested settle
// leaves the delivering to this one.
func (s *Sequencer) settle() {
	if s.inSettle {
		return
	}
	s.inSettle = true
	for len(s.owed) > 0 {
		p := s.owed[0]
		s.owed = s.owed[1:]
		s.peerFailed(p)
	}
	for s.delivered < min(s.ready, s.lastIndex()) {
		s.delivered++
		s.handOut(s.log[s.delivered-s.base-1])
	}
	s.inSettle = false
	s.compact()
}

// dropThrough drops the entries up to oseq from the front of list, in
// place, so that later appends reuse the array.
func dropThrough(list []ownEntry, oseq uint64) []ownEntry {
	n := 0
	for n < len(list) && list[n].oseq <= oseq {
		n++
	}
	kept := copy(list, list[n:])
	clear(list[kept:])
	return list[:kept]
}

func (s *Sequencer) handOut(e wire.SeqEntry) {
	s.oseqs[e.Origin] = max(s.oseqs[e.Origin], e.OSeq)
	if h := s.held[e.Origin]; len(h) > 0 {
		s.held[e.Origin] = dropThrough(h, e.OSeq)
	}
	if e.Origin == s.self && e.OSeq > 0 && len(s.pending) > 0 && s.pending[0].oseq <= e.OSeq {
		s.pending = dropThrough(s.pending, e.OSeq)
		s.pendingSince = s.env.Now()
	}
	gc, ok := e.Payload.(*wire.GroupClosed)
	if !ok {
		if s.cbs.Deliver != nil {
			s.cbs.Deliver(e.Origin, e.Payload)
		}
		return
	}
	switch p := gc.Origin; {
	case p == wire.NoNode: // the empty cut that opens an epoch
	case !s.member(p) || gc.Inc > s.inc[p]:
		// The cut of an incarnation this member seats later (it commits
		// the join after its leaf-mates): reported when it does.
		s.early[p] = gc.Inc
	case gc.Inc == s.inc[p] && !s.closed[p]:
		s.closed[p] = true
		s.peerFailed(p)
	}
}

func (s *Sequencer) peerFailed(p wire.NodeID) {
	if s.cbs.PeerFailed != nil {
		s.cbs.PeerFailed(p)
	}
}

// compact drops the slots up to the trim point, bounded by what this
// member delivered, once there are retain of them. The sequencer's trim
// point is retain below the committed slots every live member
// acknowledged, and stays while a peer is expected.
func (s *Sequencer) compact() {
	if s.sequencing() && len(s.expected) == 0 {
		t := s.ready
		for _, m := range s.members {
			if m != s.self && !s.cut[m] {
				t = min(t, s.match[m])
			}
		}
		if t >= retain {
			s.trim = max(s.trim, t-retain)
		}
	}
	upTo := min(s.trim, s.delivered)
	if upTo < s.base+retain {
		return
	}
	s.baseEpoch = s.epochAt(upTo)
	kept := copy(s.log, s.log[upTo-s.base:])
	clear(s.log[kept:])
	s.log = s.log[:kept]
	s.base = upTo
}

// Tick drives heartbeats, failure detection and epoch changes.
func (s *Sequencer) Tick() {
	now, hb := s.env.Now(), s.cfg.heartbeat()
	switch {
	case s.sequencing():
		s.commit(s.lastIndex(), 1, s.quorum(), s.self) // what a smaller quorum commits now
		cuts := false
		for _, m := range s.members {
			if m != s.self && !s.cut[m] && now-s.heard[m] > s.cfg.failAfter() {
				s.stamp(wire.SeqEntry{Epoch: s.epoch, Origin: s.self, Payload: &wire.GroupClosed{Origin: m, Inc: s.inc[m]}})
				cuts = true
			}
		}
		for _, m := range s.members {
			if m != s.self && !s.cut[m] && (cuts || now-s.sentAt[m] >= hb) {
				// The cut, a heartbeat, or what a lost append or
				// acknowledgement held up.
				s.send(m, &s.fill(s.next[m]).full)
			}
		}
	case s.collecting:
		if now-s.lastSent >= hb {
			s.requestLogs() // answers lost, or members that stood by their sequencer
		}
	default:
		rank := 0
		for _, m := range s.members {
			if m < s.self && m != s.leader() && !s.closed[m] {
				rank++
			}
		}
		switch {
		case now-s.lastHeard > time.Duration(rank+1)*s.cfg.failAfter():
			s.startEpoch()
		case !s.following:
		case now-s.lastSent >= hb:
			s.ack(s.verified, false, false) // liveness
		}
		// A lost forward. Not sooner: an own broadcast waits behind
		// whatever fills the links to the sequencer and back, and forwarding
		// every pending payload again only adds to that.
		if s.following && len(s.pending) > 0 && now-s.pendingSince >= s.cfg.failAfter()/4 {
			s.reforward()
		}
	}
	s.settle()
}

// RemovePeer drops a peer after its failure cut.
func (s *Sequencer) RemovePeer(peer wire.NodeID) {
	if i, ok := slices.BinarySearch(s.members, peer); ok {
		s.members = slices.Delete(s.members, i, i+1)
		delete(s.next, peer)
		delete(s.match, peer)
		delete(s.held, peer)
		delete(s.sentAt, peer)
		delete(s.heard, peer)
	}
}

// Expect keeps the log from now until peer is added and has
// acknowledged it.
func (s *Sequencer) Expect(peer wire.NodeID) { s.expected[peer] = true }

// AddPeer seats peer under incarnation inc. The sequencer sends it the
// log from the trim point and gives it SeatGrace beyond failAfter to
// answer.
func (s *Sequencer) AddPeer(peer wire.NodeID, inc uint32) {
	delete(s.expected, peer)
	i, ok := slices.BinarySearch(s.members, peer)
	if ok {
		return
	}
	s.members = slices.Insert(s.members, i, peer)
	s.inc[peer] = inc
	delete(s.closed, peer)
	delete(s.cut, peer)
	if cutInc, ok := s.early[peer]; ok && cutInc == inc {
		s.closed[peer] = true
		s.owed = append(s.owed, peer)
	}
	delete(s.early, peer)
	if s.sequencing() {
		s.next[peer], s.match[peer] = s.base+1, 0
		s.heard[peer] = s.env.Now() + s.cfg.SeatGrace
		s.send(peer, &s.fill(s.next[peer]).full)
	}
}
