package wire

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
// The zero value is ready to use. A Decoder is not safe for concurrent
// use.
type Decoder struct {
	forwards []SeqForward
	appends  []SeqAppend
	acks     []SeqAck
	requests []ProposalRequest
	entries  []SeqEntry
	vnodes   map[string]string // interned ProposalRequest.VNode values
}

// Decode decodes one message from the front of b like the package-level
// Decode, returning the message and the number of bytes consumed.
func (d *Decoder) Decode(b []byte) (Message, int, error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	if d.vnodes == nil {
		d.vnodes = make(map[string]string)
	}
	r := reader{b: b, off: 1, vnodes: d.vnodes}
	var m Message
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
