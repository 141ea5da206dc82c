package wire

import "canopus/internal/chunk"

// Decoder decodes the messages of one inbound connection. The leaf
// broadcast's control traffic — SeqForward, SeqAppend, SeqAck — and
// ProposalRequest ride every consensus cycle and no receiver keeps them,
// so they are decoded into scratch the Decoder reuses, and steady state
// allocates nothing for them but their payloads; every other kind goes
// through Decode.
//
// Ownership: a scratch-backed message, and the Entries slice of a
// SeqAppend, are valid until the next Reset. What they point to is not
// scratch: payloads (and everything Decode returns) are ordinary
// immutable heap objects a receiver may keep, and a ProposalRequest's
// VNode is an ordinary string. Every Decode overwrites its slot in full
// and caps Entries at its own length, so nothing a receiver did to an
// earlier message — short of writing to it after Reset — shows in a later
// one.
//
// A decoded proposal's requests and their values are not scratch either,
// but they come out of chunks the Decoder allocates and never reuses
// (reqChunk requests, valChunk bytes): a chunk lives until the last
// proposal carved from it is dropped. The proposals of one connection are
// kept, and dropped, in about the order they arrive, so a chunk pins
// little that is not alive anyway. A proposal whose requests or values
// would take more than a quarter of a chunk gets allocations of its own,
// and its requests do too when its values do: a request chunk points at
// value chunks only, so a kept proposal pins chunks, never the values of
// a dropped neighbour. The proposal itself (its box, see newProposal)
// comes out of a chunk of boxChunk only when it is small (Footprint): it
// then points at chunk memory and small allocations alone, and so do the
// neighbours a kept box pins. The retention window keeps some proposals
// much longer than their neighbours, and a big one's box would pin a
// chunk's worth of others' own allocations.
//
// The zero value is ready to use. A Decoder is not safe for concurrent
// use.
type Decoder struct {
	forwards []SeqForward
	appends  []SeqAppend
	acks     []SeqAck
	requests []ProposalRequest
	entries  []SeqEntry
	vnodes   map[string]string // interned ProposalRequest.VNode values
	reqs     chunk.Of[Request]
	vals     chunk.Of[byte]
	box1     chunk.Of[proposalBox1]
	box4     chunk.Of[proposalBox4]
}

// Chunk sizes of a Decoder's proposal requests, values and boxes.
const (
	reqChunk = 128
	valChunk = 16 << 10
	boxChunk = 16
)

// Footprint counts what a proposal's batches point to: requests and
// arrival samples, and the requests' value bytes.
type Footprint struct{ items, valueBytes int }

// Add counts b. Once the items are too many for Small, the values are not
// summed.
func (f *Footprint) Add(b *Batch) {
	f.items += len(b.Reqs) + len(b.Samples)
	for i := 0; i < len(b.Reqs) && f.items <= reqChunk/4; i++ {
		f.valueBytes += len(b.Reqs[i].Val)
	}
}

// Small reports whether the items take at most a quarter of a Decoder's
// request chunk and the value bytes a quarter of its value chunk. A
// proposal this small may take its box from a chunk: everything a kept box
// pins, the other boxes of its chunk and what they point to, is small or
// chunk memory itself. A node's own proposals and merged states follow the
// same rule.
func (f Footprint) Small() bool { return f.items <= reqChunk/4 && f.valueBytes <= valChunk/4 }

// Decode decodes one message from the front of b like the package-level
// Decode, returning the message and the number of bytes consumed.
func (d *Decoder) Decode(b []byte) (Encodable, int, error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	if d.vnodes == nil {
		d.vnodes = make(map[string]string)
	}
	r := reader{b: b, off: 1, dec: d}
	var m Encodable
	switch Kind(b[0]) {
	case KindSeqForward:
		d.forwards = append(d.forwards, SeqForward{})
		v := &d.forwards[len(d.forwards)-1]
		readSeqForward(&r, v)
		m = v
	case KindSeqAppend:
		d.appends = append(d.appends, SeqAppend{})
		v := &d.appends[len(d.appends)-1]
		d.entries = readSeqAppend(&r, v, d.entries)
		m = v
	case KindSeqAck:
		d.acks = append(d.acks, SeqAck{})
		v := &d.acks[len(d.acks)-1]
		readSeqAck(&r, v)
		m = v
	case KindProposalRequest:
		d.requests = append(d.requests, ProposalRequest{})
		v := &d.requests[len(d.requests)-1]
		readProposalRequest(&r, v)
		m = v
	default:
		m = readMessage(&r, Kind(b[0]))
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return m, r.off, nil
}

// Reset invalidates every scratch-backed message handed out since the
// previous Reset and makes the scratch available again. Payloads are
// dropped so the scratch does not keep delivered proposals alive.
func (d *Decoder) Reset() {
	clear(d.forwards)
	clear(d.entries)
	d.forwards = d.forwards[:0]
	d.appends = d.appends[:0]
	d.acks = d.acks[:0]
	d.requests = d.requests[:0]
	d.entries = d.entries[:0]
}
