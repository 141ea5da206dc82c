package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary layout: little-endian fixed-width integers, length-prefixed
// slices (u32 counts, u16 string lengths). Every message starts with one
// Kind byte so a frame can be decoded without out-of-band type info.
//
// For explicit messages WireSize equals len(AppendTo(nil)) exactly; fluid
// batches (Reqs == nil) additionally count their modeled ByteSize so the
// simulator charges links for the bytes the batch stands for.

// ErrTruncated is returned when a buffer ends before a full message.
var ErrTruncated = errors.New("wire: truncated message")

// ErrUnknownKind is returned for an unrecognized kind byte.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// ErrBadBool is returned when a boolean field is neither 0 nor 1. The
// codec only ever writes 0/1, so anything else is corruption; rejecting
// it also keeps decoding canonical (decode∘encode is the identity on
// every accepted buffer), which the codec fuzz target checks.
var ErrBadBool = errors.New("wire: invalid boolean encoding")

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putNode(b []byte, n NodeID) []byte { return putU32(b, uint32(int32(n))) }

func putString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = putU16(b, uint16(len(s)))
	return append(b, s...)
}

func putBytes(b, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

// reader is a cursor over an encoded buffer. All accessors are
// error-latching: after the first failure every further read returns the
// zero value, so decode functions can read unconditionally and check err
// once (the bufio error-latching idiom).
type reader struct {
	b   []byte
	off int
	err error
	// dec, when non-nil, interns the vnode IDs read and holds the chunks
	// a proposal's requests and values are carved from (see Decoder).
	dec *Decoder
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) boolean() bool {
	v := r.u8()
	if v > 1 && r.err == nil {
		r.err = ErrBadBool
	}
	return v == 1
}

func (r *reader) node() NodeID { return NodeID(int32(r.u32())) }

func (r *reader) str() string { return r.strInterned(nil) }

// vnodes is the Decoder's intern table, nil without one.
func (r *reader) vnodes() map[string]string {
	if r.dec == nil {
		return nil
	}
	return r.dec.vnodes
}

// maxInterned bounds a Decoder's vnode-ID table; a deployment has far
// fewer vnodes, so only a corrupt or hostile peer ever reaches it.
const maxInterned = 1024

// strInterned reads a length-prefixed string. With a table, a string
// already in it is returned without allocating, and a new one is
// remembered while the table has room.
func (r *reader) strInterned(table map[string]string) string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	raw := r.b[r.off : r.off+n]
	r.off += n
	if v, ok := table[string(raw)]; ok { // no allocation: map lookup by converted bytes
		return v
	}
	v := string(raw)
	if table != nil && len(table) < maxInterned {
		table[v] = v
	}
	return v
}

func (r *reader) bytes() []byte {
	return r.bytesArena(nil)
}

// bytesArena reads a length-prefixed byte string, copying it into *arena
// (when non-nil) instead of a dedicated allocation. Growth of the arena
// leaves previously returned slices pointing into the old backing array,
// which stays valid — callers just must not recycle an arena while any
// slice carved from it is alive.
func (r *reader) bytesArena(arena *[]byte) []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	var v []byte
	if arena != nil {
		a := append(*arena, r.b[r.off:r.off+n]...)
		*arena = a
		v = a[len(a)-n:]
	} else {
		v = make([]byte, n)
		copy(v, r.b[r.off:])
	}
	r.off += n
	return v
}

// count reads a u32 element count and bounds it by the remaining bytes so
// a corrupt length cannot trigger a huge allocation.
func (r *reader) count(minElemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minElemSize > 0 && n > (len(r.b)-r.off)/minElemSize+1 {
		r.fail()
		return 0
	}
	return n
}

// --- Request / Batch ---

const requestFixedSize = 8 + 8 + 1 + 8 + 4 // client, seq, op, key, val-len

func requestSize(q *Request) int { return requestFixedSize + len(q.Val) }

func appendRequest(b []byte, q *Request) []byte {
	b = putU64(b, q.Client)
	b = putU64(b, q.Seq)
	b = putU8(b, uint8(q.Op))
	b = putU64(b, q.Key)
	return putBytes(b, q.Val)
}

// readRequests decodes len(reqs) requests, carving their values from
// *arena (see bytesArena): the caller sizes it by a pre-scan of the length
// prefixes, so a proposal costs one value allocation instead of one per
// request; the values are immutable and live as long as any of them is
// referenced.
func readRequests(r *reader, reqs []Request, arena *[]byte) {
	for i := range reqs {
		q := &reqs[i]
		q.Client = r.u64()
		q.Seq = r.u64()
		q.Op = Op(r.u8())
		q.Key = r.u64()
		q.Val = r.bytesArena(arena)
	}
}

// scanRequests walks up to n requests encoded at b[off:] and returns the
// offset behind the last complete one, how many it passed and the sum of
// their value lengths. It stops early at a framing error.
func scanRequests(b []byte, off, n int) (end, reqs, valueBytes int) {
	for ; reqs < n; reqs++ {
		next := off + requestFixedSize
		if next > len(b) {
			break
		}
		l := int(binary.LittleEndian.Uint32(b[next-4:]))
		if l > len(b)-next {
			break
		}
		off = next + l
		valueBytes += l
	}
	return off, reqs, valueBytes
}

// scanBatches walks the n batches encoded at the cursor without consuming
// them and returns how many requests they hold and the sum of their value
// lengths. A framing error ends the walk early: the decode that follows
// reports it, and only sizes its allocations by what was counted.
func (r *reader) scanBatches(n int) (reqs, valueBytes int) {
	if r.err != nil {
		return 0, 0
	}
	b, off := r.b, r.off
	for i := 0; i < n; i++ {
		if off+5 > len(b) {
			return
		}
		explicit := b[off+4] == 1
		off += 5
		if explicit {
			if off+4 > len(b) {
				return
			}
			want := int(binary.LittleEndian.Uint32(b[off:]))
			end, nr, nv := scanRequests(b, off+4, want)
			reqs, valueBytes = reqs+nr, valueBytes+nv
			if nr < want {
				return
			}
			off = end
		}
		if off+16 > len(b) {
			return
		}
		ns := int(binary.LittleEndian.Uint32(b[off+12:]))
		off += 16
		if ns > (len(b)-off)/sampleSize {
			return
		}
		off += ns * sampleSize
	}
	return
}

const sampleSize = 8 + 4 + 1

func batchSize(bt *Batch) int {
	n := 4 + 1 + 4 + 4 + 4 + 4 + len(bt.Samples)*sampleSize
	if bt.Reqs != nil {
		n += 4
		for i := range bt.Reqs {
			n += requestSize(&bt.Reqs[i])
		}
	} else {
		// Fluid batch: the modeled payload is charged to the wire even
		// though there is nothing to encode.
		n += int(bt.ByteSize)
	}
	return n
}

func appendBatch(b []byte, bt *Batch) []byte {
	b = putNode(b, bt.Origin)
	b = putBool(b, bt.Reqs != nil)
	if bt.Reqs != nil {
		b = putU32(b, uint32(len(bt.Reqs)))
		for i := range bt.Reqs {
			b = appendRequest(b, &bt.Reqs[i])
		}
	}
	b = putU32(b, bt.NumRead)
	b = putU32(b, bt.NumWrite)
	b = putU32(b, bt.ByteSize)
	b = putU32(b, uint32(len(bt.Samples)))
	for _, s := range bt.Samples {
		b = putU64(b, uint64(s.At))
		b = putU32(b, s.Count)
		b = putBool(b, s.Read)
	}
	return b
}

// readBatchInto decodes one batch into bt, taking its requests from *slab
// and their values from *arena; both are sized by scanBatches, and a batch
// that outgrows them (the scan stopped at a framing error) falls back to
// allocations of its own.
func readBatchInto(r *reader, bt *Batch, slab *[]Request, arena *[]byte) {
	bt.Origin = r.node()
	explicit := r.boolean()
	if explicit {
		n := r.count(requestFixedSize)
		switch s := *slab; {
		case n == 0:
			bt.Reqs = []Request{} // explicit and empty, which nil is not
		case n <= cap(s)-len(s):
			bt.Reqs = s[len(s) : len(s)+n : len(s)+n]
			*slab = s[:len(s)+n]
		default:
			bt.Reqs = make([]Request, n)
		}
		readRequests(r, bt.Reqs, arena)
	}
	bt.NumRead = r.u32()
	bt.NumWrite = r.u32()
	bt.ByteSize = r.u32()
	ns := r.count(sampleSize)
	if ns > 0 {
		bt.Samples = make([]ArrivalSample, ns)
		for i := 0; i < ns; i++ {
			bt.Samples[i].At = int64(r.u64())
			bt.Samples[i].Count = r.u32()
			bt.Samples[i].Read = r.boolean()
		}
	}
}

// --- Proposal ---

// proposalSessionsFlag marks, in the encoded Round byte's high bit, that
// a trailing session-update section follows. Session updates are rare
// (registrations, expiries), so the common proposal pays zero bytes for
// the feature; LOT heights are single digits, far below the 7-bit limit.
const proposalSessionsFlag = 0x80

// proposalResolveFlag marks, in the encoded Round byte's next bit, a
// Resolve-flagged proposal (a sealed vnode's held state or an eviction
// tombstone). Like the sessions flag it costs the common proposal zero
// bytes; both flags are stripped from Round on decode.
const proposalResolveFlag = 0x40

// MemberUpdate flag byte: bit 0 is Leave. Bit 1 marked a kind of join
// that older builds wrote into their WAL; the decoder accepts it (see
// MemberUpdate.legacy) and rejects any other bit like a malformed bool.
const (
	memberLeaveFlag  = 0x01
	memberLegacyFlag = 0x02
)

// The u32 after the member updates is reserved and always 0. It was the
// count of a write-lease section the protocol no longer has; keeping the
// word keeps every proposal, and so every WAL record, byte-identical to
// what earlier builds wrote. The decoder rejects any other value like a
// malformed bool.

func (p *Proposal) WireSize() int {
	n := 1 + 8 + 1 + 2 + len(p.VNode) + 4 + 8
	n += 4 // batch count
	for _, bt := range p.Batches {
		n += batchSize(bt)
	}
	n += 4 + 5*len(p.Updates)
	n += 4 // reserved
	if len(p.Sessions) > 0 {
		n += 4 + 9*len(p.Sessions)
	}
	return n
}

func (p *Proposal) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindProposal))
	b = putU64(b, p.Cycle)
	round := p.Round
	if len(p.Sessions) > 0 {
		round |= proposalSessionsFlag
	}
	if p.Resolve {
		round |= proposalResolveFlag
	}
	b = putU8(b, round)
	b = putString(b, p.VNode)
	b = putNode(b, p.Origin)
	b = putU64(b, p.Num)
	b = putU32(b, uint32(len(p.Batches)))
	for _, bt := range p.Batches {
		b = appendBatch(b, bt)
	}
	b = putU32(b, uint32(len(p.Updates)))
	for _, u := range p.Updates {
		b = putNode(b, u.Node)
		var f uint8
		if u.Leave {
			f |= memberLeaveFlag
		}
		if u.legacy {
			f |= memberLegacyFlag
		}
		b = putU8(b, f)
	}
	b = putU32(b, 0) // reserved
	if len(p.Sessions) > 0 {
		b = putU32(b, uint32(len(p.Sessions)))
		for _, s := range p.Sessions {
			b = putU64(b, s.ID)
			b = putBool(b, s.Expire)
		}
	}
	return b
}

// proposalBox1 lets a proposal, its batch list and its batch come out of
// one allocation: the shape of a round-1 proposal.
type proposalBox1 struct {
	p       Proposal
	ptrs    [1]*Batch
	batches [1]Batch
}

// proposalBox4 is proposalBox1 for up to four batches: a super-leaf's
// height-1 state with up to four members' requests in it.
type proposalBox4 struct {
	p       Proposal
	ptrs    [4]*Batch
	batches [4]Batch
}

// newProposal returns a zero proposal whose Batches has room for nb
// entries, and the batches those entries are to point at.
func newProposal(nb int) (*Proposal, []Batch) {
	switch {
	case nb <= 1:
		box := &proposalBox1{}
		box.p.Batches = box.ptrs[:0]
		return &box.p, box.batches[:nb]
	case nb <= 4:
		box := &proposalBox4{}
		box.p.Batches = box.ptrs[:0]
		return &box.p, box.batches[:nb]
	}
	return &Proposal{Batches: make([]*Batch, 0, nb)}, make([]Batch, nb)
}

// NewRoundOneProposal returns a zero proposal and the one batch a round-1
// proposal carries, from one allocation — the shape readProposal gives the
// same proposal at its receivers. The batch is not in p.Batches yet: the
// caller fills it and appends it, or leaves p without a batch.
func NewRoundOneProposal() (*Proposal, *Batch) {
	p, batches := newProposal(1)
	return p, &batches[0]
}

// readProposal decodes a proposal in at most four allocations, however
// many batches and requests it carries: the proposal with its batches
// (newProposal), one slice holding every batch's requests, one holding
// every request's value (both sized by a pre-scan, see scanBatches) and,
// without an intern table, the vnode ID. Through a Decoder, the requests
// and values mostly come out of its chunks instead.
func readProposal(r *reader) *Proposal {
	cycle := r.u64()
	round := r.u8()
	vnode := r.strInterned(r.vnodes())
	origin := r.node()
	num := r.u64()
	nb := r.count(18)
	p, batches := newProposal(nb)
	p.Cycle = cycle
	hasSessions := round&proposalSessionsFlag != 0
	p.Resolve = round&proposalResolveFlag != 0
	p.Round = round &^ uint8(proposalSessionsFlag|proposalResolveFlag)
	p.VNode = vnode
	p.Origin = origin
	p.Num = num
	nreq, valueBytes := r.scanBatches(nb)
	var slab []Request
	var arena []byte
	if r.dec != nil && valueBytes <= valChunk/4 {
		// Only with the values in a chunk: a request chunk must point at
		// value chunks alone, never at a neighbour's own allocation.
		slab = r.dec.reqs.take(nreq, reqChunk)
		arena = r.dec.vals.take(valueBytes, valChunk)
	} else {
		if nreq > 0 {
			slab = make([]Request, 0, nreq)
		}
		if valueBytes > 0 {
			arena = make([]byte, 0, valueBytes)
		}
	}
	for i := range batches {
		readBatchInto(r, &batches[i], &slab, &arena)
		p.Batches = append(p.Batches, &batches[i])
	}
	nu := r.count(5)
	if nu > 0 {
		p.Updates = make([]MemberUpdate, nu)
		for i := 0; i < nu; i++ {
			p.Updates[i].Node = r.node()
			f := r.u8()
			if f&^(memberLeaveFlag|memberLegacyFlag) != 0 && r.err == nil {
				r.err = ErrBadBool
			}
			p.Updates[i].Leave = f&memberLeaveFlag != 0
			p.Updates[i].legacy = f&memberLegacyFlag != 0
		}
	}
	if r.u32() != 0 && r.err == nil {
		r.err = ErrBadBool // reserved
	}
	if hasSessions {
		ns := r.count(9)
		if ns == 0 && r.err == nil {
			// A flagged-but-empty section would re-encode flagless;
			// reject to keep decoding canonical.
			r.err = ErrTruncated
		}
		p.Sessions = make([]SessionUpdate, ns)
		for i := 0; i < ns; i++ {
			p.Sessions[i].ID = r.u64()
			p.Sessions[i].Expire = r.boolean()
		}
	}
	return p
}

// --- ProposalRequest ---

func (p *ProposalRequest) WireSize() int { return 1 + 8 + 1 + 2 + len(p.VNode) + 4 }

func (p *ProposalRequest) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindProposalRequest))
	b = putU64(b, p.Cycle)
	b = putU8(b, p.Round)
	b = putString(b, p.VNode)
	return putNode(b, p.From)
}

// readProposalRequest decodes into p.
func readProposalRequest(r *reader, p *ProposalRequest) {
	p.Cycle = r.u64()
	p.Round = r.u8()
	p.VNode = r.strInterned(r.vnodes())
	p.From = r.node()
}

// --- Sequenced broadcast ---

const seqEntryFixed = 8 + 4 + 8 + 1

func seqEntriesSize(es []SeqEntry) int {
	n := 4
	for i := range es {
		n += seqEntryFixed
		if es[i].Payload != nil {
			n += es[i].Payload.WireSize()
		}
	}
	return n
}

func appendSeqEntries(b []byte, es []SeqEntry) []byte {
	b = putU32(b, uint32(len(es)))
	for i := range es {
		e := &es[i]
		b = putU64(b, e.Epoch)
		b = putNode(b, e.Origin)
		b = putU64(b, e.OSeq)
		b = appendOptional(b, e.Payload)
	}
	return b
}

// readSeqEntries appends the entries read to entries and returns the grown
// slice and the part of it just read (nil when none), capped at its
// length.
func readSeqEntries(r *reader, entries []SeqEntry) (grown, read []SeqEntry) {
	n := r.count(seqEntryFixed)
	start := len(entries)
	for i := 0; i < n && r.err == nil; i++ {
		var e SeqEntry
		e.Epoch = r.u64()
		e.Origin = r.node()
		e.OSeq = r.u64()
		e.Payload = readOptional(r)
		entries = append(entries, e)
	}
	if len(entries) > start {
		read = entries[start:len(entries):len(entries)]
	}
	return entries, read
}

// appendOptional encodes a message that may be nil behind a presence flag.
func appendOptional(b []byte, m Encodable) []byte {
	if m == nil {
		return putBool(b, false)
	}
	return m.AppendTo(putBool(b, true))
}

func optionalSize(m Encodable) int {
	if m == nil {
		return 1
	}
	return 1 + m.WireSize()
}

func readOptional(r *reader) Encodable {
	if !r.boolean() {
		return nil
	}
	// On the same reader: the payload shares the intern table, and a
	// truncated payload is the enclosing message's truncation.
	return readMessage(r, Kind(r.u8()))
}

func (m *SeqForward) WireSize() int { return 1 + 8 + 4 + 8 + 8 + optionalSize(m.Payload) }

func (m *SeqForward) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindSeqForward))
	b = putU64(b, m.Epoch)
	b = putNode(b, m.Origin)
	b = putU64(b, m.OSeq)
	b = putU64(b, m.Match)
	return appendOptional(b, m.Payload)
}

func readSeqForward(r *reader, m *SeqForward) {
	m.Epoch = r.u64()
	m.Origin = r.node()
	m.OSeq = r.u64()
	m.Match = r.u64()
	m.Payload = readOptional(r)
}

func (m *SeqAppend) WireSize() int { return 1 + 5*8 + seqEntriesSize(m.Entries) }

func (m *SeqAppend) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindSeqAppend))
	b = putU64(b, m.Epoch)
	b = putU64(b, m.Seq)
	b = putU64(b, m.PrevEpoch)
	b = putU64(b, m.Commit)
	b = putU64(b, m.Trim)
	return appendSeqEntries(b, m.Entries)
}

// readSeqAppend decodes into m, appending its entries to entries (which
// m.Entries then sub-slices) and returning the grown slice.
func readSeqAppend(r *reader, m *SeqAppend, entries []SeqEntry) []SeqEntry {
	m.Epoch = r.u64()
	m.Seq = r.u64()
	m.PrevEpoch = r.u64()
	m.Commit = r.u64()
	m.Trim = r.u64()
	entries, m.Entries = readSeqEntries(r, entries)
	return entries
}

func (m *SeqAck) WireSize() int { return 1 + 8 + 4 + 4 + 8 + 1 }

func (m *SeqAck) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindSeqAck))
	b = putU64(b, m.Epoch)
	b = putNode(b, m.From)
	b = putU32(b, m.Inc)
	b = putU64(b, m.Match)
	return putBool(b, m.Reject)
}

func readSeqAck(r *reader, m *SeqAck) {
	m.Epoch = r.u64()
	m.From = r.node()
	m.Inc = r.u32()
	m.Match = r.u64()
	m.Reject = r.boolean()
}

func (m *SeqEpoch) WireSize() int {
	return 1 + 8 + 4 + 8 + 8 + 8 + seqEntriesSize(m.Entries) + 4 + 12*len(m.Delivered)
}

func (m *SeqEpoch) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindSeqEpoch))
	b = putU64(b, m.Epoch)
	b = putNode(b, m.From)
	b = putU64(b, m.Commit)
	b = putU64(b, m.Seq)
	b = putU64(b, m.PrevEpoch)
	b = appendSeqEntries(b, m.Entries)
	b = putU32(b, uint32(len(m.Delivered)))
	for _, d := range m.Delivered {
		b = putNode(b, d.Origin)
		b = putU64(b, d.OSeq)
	}
	return b
}

func readSeqEpoch(r *reader) *SeqEpoch {
	m := &SeqEpoch{}
	m.Epoch = r.u64()
	m.From = r.node()
	m.Commit = r.u64()
	m.Seq = r.u64()
	m.PrevEpoch = r.u64()
	_, m.Entries = readSeqEntries(r, nil)
	if n := r.count(12); n > 0 {
		m.Delivered = make([]OriginSeq, n)
		for i := range m.Delivered {
			m.Delivered[i] = OriginSeq{Origin: r.node(), OSeq: r.u64()}
		}
	}
	return m
}

// --- Liveness and membership ---

func (m *GroupClosed) WireSize() int { return 1 + 4 + 4 }

func (m *GroupClosed) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindGroupClosed))
	b = putNode(b, m.Origin)
	return putU32(b, m.Inc)
}

func readGroupClosed(r *reader) *GroupClosed {
	return &GroupClosed{Origin: r.node(), Inc: r.u32()}
}

func (m *JoinRequest) WireSize() int { return 1 + 4 + 8 }

func (m *JoinRequest) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindJoinRequest))
	b = putNode(b, m.From)
	return putU64(b, m.Nonce)
}

func readJoinRequest(r *reader) *JoinRequest {
	return &JoinRequest{From: r.node(), Nonce: r.u64()}
}

// --- Leaf eviction ---

func (m *LeafSeal) WireSize() int { return 1 + 8 + 2 + len(m.VNode) + 4 }

func (m *LeafSeal) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindLeafSeal))
	b = putU64(b, m.Cycle)
	b = putString(b, m.VNode)
	return putNode(b, m.Initiator)
}

func readLeafSeal(r *reader) *LeafSeal {
	m := &LeafSeal{}
	m.Cycle = r.u64()
	m.VNode = r.str()
	m.Initiator = r.node()
	return m
}

func (m *EvictQuery) WireSize() int { return 1 + 8 + 2 + len(m.VNode) + 4 }

func (m *EvictQuery) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindEvictQuery))
	b = putU64(b, m.Cycle)
	b = putString(b, m.VNode)
	return putNode(b, m.From)
}

func readEvictQuery(r *reader) *EvictQuery {
	m := &EvictQuery{}
	m.Cycle = r.u64()
	m.VNode = r.str()
	m.From = r.node()
	return m
}

func (m *EvictPromise) WireSize() int { return 1 + 8 + 2 + len(m.VNode) + 4 }

func (m *EvictPromise) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindEvictPromise))
	b = putU64(b, m.Cycle)
	b = putString(b, m.VNode)
	return putNode(b, m.From)
}

func readEvictPromise(r *reader) *EvictPromise {
	m := &EvictPromise{}
	m.Cycle = r.u64()
	m.VNode = r.str()
	m.From = r.node()
	return m
}

func (m *Evicted) WireSize() int { return 1 + 4 }

func (m *Evicted) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindEvicted))
	return putNode(b, m.From)
}

func readEvicted(r *reader) *Evicted {
	return &Evicted{From: r.node()}
}

func (m *JoinReply) WireSize() int {
	return 1 + 4 + 8 + 8 + 4 + 4*len(m.Alive) + 4 + 4*len(m.Incarnations) + 4 + 8*len(m.Seats) +
		4 + len(m.Contents) + 4 + len(m.Sessions) + 4 + 8 + 8
}

func (m *JoinReply) AppendTo(b []byte) []byte {
	b = putU8(b, uint8(KindJoinReply))
	b = putNode(b, m.From)
	b = putU64(b, m.Nonce)
	b = putU64(b, m.StartCycle)
	b = putU32(b, uint32(len(m.Alive)))
	for _, id := range m.Alive {
		b = putNode(b, id)
	}
	b = putU32(b, uint32(len(m.Incarnations)))
	for _, inc := range m.Incarnations {
		b = putU32(b, inc)
	}
	b = putU32(b, uint32(len(m.Seats)))
	for _, from := range m.Seats {
		b = putU64(b, from)
	}
	b = putBytes(b, m.Contents)
	b = putBytes(b, m.Sessions)
	b = putU32(b, m.MaxInFlight)
	b = putU64(b, uint64(m.LeafTimeout))
	return putU64(b, uint64(m.SessionIdleCycles))
}

func readJoinReply(r *reader) *JoinReply {
	m := &JoinReply{}
	m.From = r.node()
	m.Nonce = r.u64()
	m.StartCycle = r.u64()
	na := r.count(4)
	if na > 0 {
		m.Alive = make([]NodeID, na)
		for i := 0; i < na; i++ {
			m.Alive[i] = r.node()
		}
	}
	ni := r.count(4)
	if ni > 0 {
		m.Incarnations = make([]uint32, ni)
		for i := 0; i < ni; i++ {
			m.Incarnations[i] = r.u32()
		}
	}
	if n := r.count(8); n > 0 {
		m.Seats = make([]uint64, n)
		for i := range m.Seats {
			m.Seats[i] = r.u64()
		}
	}
	m.Contents = r.bytes()
	m.Sessions = r.bytes()
	m.MaxInFlight = r.u32()
	m.LeafTimeout = time.Duration(r.u64())
	m.SessionIdleCycles = int64(r.u64())
	return m
}

// Decode decodes one message from the front of b, returning the message
// and the number of bytes consumed.
func Decode(b []byte) (Encodable, int, error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	r := reader{b: b, off: 1}
	m := readMessage(&r, Kind(b[0]))
	if r.err != nil {
		return nil, 0, r.err
	}
	return m, r.off, nil
}

// readMessage decodes the body of a message of kind k at the cursor. An
// unknown kind, like any framing error, latches in r.err.
func readMessage(r *reader, k Kind) Encodable {
	if r.err != nil {
		return nil
	}
	var m Encodable
	switch k {
	case KindProposal:
		m = readProposal(r)
	case KindProposalRequest:
		v := &ProposalRequest{}
		readProposalRequest(r, v)
		m = v
	case KindSeqForward:
		v := &SeqForward{}
		readSeqForward(r, v)
		m = v
	case KindSeqAppend:
		v := &SeqAppend{}
		readSeqAppend(r, v, nil)
		m = v
	case KindSeqAck:
		v := &SeqAck{}
		readSeqAck(r, v)
		m = v
	case KindSeqEpoch:
		m = readSeqEpoch(r)
	case KindGroupClosed:
		m = readGroupClosed(r)
	case KindJoinRequest:
		m = readJoinRequest(r)
	case KindJoinReply:
		m = readJoinReply(r)
	case KindLeafSeal:
		m = readLeafSeal(r)
	case KindEvictQuery:
		m = readEvictQuery(r)
	case KindEvictPromise:
		m = readEvictPromise(r)
	case KindEvicted:
		m = readEvicted(r)
	default:
		r.err = fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	return m
}
