package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Client protocol. canopus-server's client port speaks one protocol: a
// length-prefixed, pipelined binary protocol. A client may have any
// number of requests outstanding, and responses carry the request's
// correlation ID so they can complete out of submission order (within one
// connection the server preserves order, but clients must not rely on
// it).
//
// Connection preamble (client -> server): the 4 bytes of ClientMagicV3.
// The port closes a connection that opens with anything else.
//
// Frames in both directions are [u32 length][payload], little-endian,
// where length counts payload bytes only (ReadClientFrames reads them):
//
//	request payload (single op):
//	  [u64 id][u8 kind=1][u8 op][u8 consistency][u64 minCycle][u64 key][u32 vlen][vlen bytes]
//	request payload (batch):
//	  [u64 id][u8 kind=2][u8 consistency][u64 minCycle][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//	request payload (session register):
//	  [u64 id][u8 kind=3]
//	request payload (session op):
//	  [u64 id][u8 kind=4][u8 op][u8 consistency][u64 minCycle][u64 session][u64 seq][u64 key][u32 vlen][vlen bytes]
//	request payload (session batch):
//	  [u64 id][u8 kind=5][u8 consistency][u64 minCycle][u64 session][u64 firstSeq][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//	request payload (session expire):
//	  [u64 id][u8 kind=6][u64 session]
//	request payload (watch):
//	  [u64 id][u8 kind=7][u64 watchID][u64 key][u8 prefixBits][u64 sinceCycle]
//	request payload (unwatch):
//	  [u64 id][u8 kind=8][u64 watchID]
//	request payload (txn):
//	  [u64 id][u8 kind=9][u64 session][u64 seq][txn body — see AppendTxn]
//	response payload (single op):
//	  [u64 id][u8 kind=1][u8 status][u8 code][u64 cycle][u32 vlen][vlen bytes]
//	response payload (batch):
//	  [u64 id][u8 kind=2][u8 code][u64 cycle][u32 count]
//	  count x ([u8 status][u8 code][u32 vlen][vlen bytes])
//	response payload (event, server push, no request correlation):
//	  [u64 watchID][u8 kind=7][u8 flags][u64 cycle][u32 count]
//	  count x ([u8 op][u64 key][u32 vlen][vlen bytes])
//
// Statuses: OK (write acknowledged / read hit, value attached), Nil
// (read miss), Err (request rejected; the code says why and the value is
// a human-readable reason).
//
// Consistency levels: Linearizable routes through consensus. Sequential
// and Stale are served from the replica's committed state without
// entering a consensus cycle; Sequential additionally waits until the
// replica has committed at least minCycle (the client's last observed
// commit cycle), giving monotonic reads / read-your-writes within a
// client session. The response's cycle field is the commit cycle whose
// state served the request.
//
// Sessions: a register frame asks the serving node to commit a fresh
// session ID through a consensus cycle; the reply's value is the 8-byte
// little-endian ID. Session op / session batch frames carry that ID plus
// a per-session sequence number for each mutation (in a session batch,
// mutating ops consume seqs firstSeq, firstSeq+1, ... in frame order;
// reads consume none). Every replica's state machine keeps a per-session
// dedup table, so a mutation retried after a lost reply returns the
// cached committed result instead of applying twice. A session expire
// frame reclaims the session's replicated state; ops on an expired (or
// idle-reclaimed) session fail with CodeSessionExpired.
//
// A watch delivers every committed change matching (key, prefixBits) in
// commit-cycle order, one event frame per cycle, gap-free: sinceCycle
// asks the server to replay retained history first, which is how a
// client resumes a watch after failing over to another replica. Flags
// bit 0 marks the terminal overflow frame: the server evicted history
// the watch still needed, or the connection could not keep up; the
// watch is dead and the client must re-register (accepting the gap).
//
// A txn frame answers with a single-op response whose value is the
// encoded TxnResult. Session and seq make a txn exactly-once across
// failover, exactly like a session mutation; session 0 submits the txn
// without dedup (at-most-once).

// ClientMagicV3 is the connection preamble.
var ClientMagicV3 = [4]byte{0xC4, 'N', 'P', 0x03}

// Client response statuses.
const (
	ClientStatusOK  uint8 = 0 // success; reads carry the value
	ClientStatusNil uint8 = 1 // read of an absent key
	ClientStatusErr uint8 = 2 // rejected; value holds the reason
)

// MaxClientFrame bounds client protocol frame sizes in both directions.
const MaxClientFrame = 16 << 20

// MaxBatchOps bounds the operation count of one batch frame: a batch is
// submitted to the node in a single machine turn, so it must respect the
// same per-turn fairness cap as a pipelined group of singles.
const MaxBatchOps = 512

// ErrClientFrame is returned for malformed client protocol frames.
var ErrClientFrame = errors.New("wire: bad client frame")

// clientFrameLen validates the frame length prefix at the front of hdr.
func clientFrameLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxClientFrame {
		return 0, fmt.Errorf("%w: oversized frame (%d bytes)", ErrClientFrame, n)
	}
	return int(n), nil
}

// ClientReadBuf is ReadClientFrames' initial buffer: either side writes a
// whole burst (a cycle's replies, a pipeline's requests) in one write, and
// one read should return it all. A larger frame grows the buffer to fit.
const ClientReadBuf = 64 << 10

// ReadClientFrames reads length-prefixed client frames from r through one
// buffer and hands each complete frame's payload to frame, so a burst of
// frames costs one read, not two per frame. After the last complete frame
// of each read it calls burst (when non-nil) — where a receiver that
// groups frames acts on the group. The payload aliases the buffer and is
// valid only during the call (the parsers copy out what they keep). It
// returns the first error of r, of a frame header or of frame, after the
// complete frames received ahead of it have been handled.
func ReadClientFrames(r io.Reader, frame func(payload []byte) error, burst func()) error {
	buf := make([]byte, ClientReadBuf)
	have := 0 // buf[:have] is received and not yet consumed
	for {
		n, rerr := r.Read(buf[have:])
		have += n
		used, handled := 0, false
		var err error
		for err == nil && have-used >= 4 {
			var size int
			if size, err = clientFrameLen(buf[used:]); err != nil {
				break
			}
			if have-used-4 < size {
				if 4+size > len(buf) {
					// Room for all of it, with the partial frame in front.
					grown := make([]byte, 4+size)
					have = copy(grown, buf[used:have])
					buf, used = grown, 0
				}
				break
			}
			err = frame(buf[used+4 : used+4+size])
			used += 4 + size
			handled = true
		}
		if handled && burst != nil {
			burst()
		}
		if err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		have = copy(buf, buf[used:have])
	}
}

// EachClientFrame calls frame for each frame in b, which holds whole
// frames only.
func EachClientFrame(b []byte, frame func(payload []byte) error) error {
	for len(b) > 0 {
		size, err := 0, ErrClientFrame
		if len(b) >= 4 {
			size, err = clientFrameLen(b)
		}
		if err != nil || len(b) < 4+size {
			return ErrClientFrame
		}
		if err := frame(b[4 : 4+size]); err != nil {
			return err
		}
		b = b[4+size:]
	}
	return nil
}

// Consistency is a client read-consistency level.
type Consistency uint8

const (
	// Linearizable orders the read through a consensus cycle: it
	// observes every write committed before it was issued, anywhere.
	Linearizable Consistency = 0
	// Sequential is served from the local replica's committed state once
	// the replica has committed the client's last observed cycle:
	// monotonic within a session, possibly stale globally.
	Sequential Consistency = 1
	// Stale is served immediately from the local replica's committed
	// state, however far behind it is.
	Stale Consistency = 2
)

func (c Consistency) String() string {
	switch c {
	case Linearizable:
		return "linearizable"
	case Sequential:
		return "sequential"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// Frame kinds: requests 1–9; responses 1, 2 and 7.
const (
	kindOp           uint8 = 1
	kindBatch        uint8 = 2
	kindRegister     uint8 = 3
	kindSessionOp    uint8 = 4
	kindSessionBatch uint8 = 5
	kindExpire       uint8 = 6
	kindWatch        uint8 = 7
	kindUnwatch      uint8 = 8
	kindTxn          uint8 = 9
	kindEvent        uint8 = 7
)

// Response error codes (meaningful when a status is ClientStatusErr).
const (
	CodeNone           uint8 = 0 // no error
	CodeDraining       uint8 = 1 // server shutting down; retry elsewhere
	CodeStalled        uint8 = 2 // node halted (§6); retry elsewhere
	CodeBadRequest     uint8 = 3 // malformed or unsupported request
	CodeSessionExpired uint8 = 4 // session unknown or reclaimed; not retryable
	CodeWatchOverflow  uint8 = 5 // watch resume point already evicted
)

// ClientOp is one keyed operation inside a request.
type ClientOp struct {
	Op  Op
	Key uint64
	Val []byte // write payload; nil for reads and deletes
}

// ClientRequestV2 is one request frame: a single operation, an ordered
// multi-op batch submitted in one machine turn, a session management
// frame (Register / Expire), a watch registration or cancellation, or a
// transaction. Consistency and MinCycle apply to every read in the
// frame. A non-zero Session selects the session frame shapes: Seq is the
// session sequence number of the frame's first mutating op, and
// subsequent mutating ops in a batch consume Seq+1, Seq+2, ... in frame
// order.
type ClientRequestV2 struct {
	ID          uint64
	Batch       bool // encode as a batch frame even when len(Ops) == 1
	Register    bool // session-register frame (no ops)
	Expire      bool // session-expire frame (Session set, no ops)
	Consistency Consistency
	MinCycle    uint64
	Session     uint64
	Seq         uint64
	Ops         []ClientOp

	Watch      bool   // watch-registration frame
	Unwatch    bool   // watch-cancel frame
	Txn        bool   // transaction frame (TxnGuards/TxnOps carry the body)
	WatchID    uint64 // client-chosen watch identity, stable across reconnects
	WatchKey   uint64 // watched key (or prefix value under PrefixBits)
	PrefixBits uint8  // 64 = exact key, 0 = every key, n = top n key bits
	SinceCycle uint64 // replay events from this commit cycle on (0 = live only)
	TxnGuards  []TxnGuard
	TxnOps     []TxnOp
}

// ClientResult is one operation's outcome inside a batch response.
type ClientResult struct {
	Status uint8
	Code   uint8
	Val    []byte
}

// ClientResponseV2 answers one ClientRequestV2, or — Event set — is a
// server push on a watch. Cycle is the highest commit cycle involved in
// serving the frame (the read timestamp). Single-op responses use
// Status/Code/Val; batch responses use Code/Results; in an event frame ID
// carries the watch ID and Cycle the commit cycle whose changes the frame
// delivers.
type ClientResponseV2 struct {
	ID      uint64
	Batch   bool
	Status  uint8
	Code    uint8
	Cycle   uint64
	Val     []byte
	Results []ClientResult

	Event    bool
	Overflow bool // watch killed: consumer too slow or resume point evicted
	Events   []Event
}

const (
	reqOpFixed        = 8 + 1 + 1 + 1 + 8 + 8 + 4         // id, kind, op, consistency, minCycle, key, vlen
	reqBatchFixed     = 8 + 1 + 1 + 8 + 4                 // id, kind, consistency, minCycle, count
	reqElemFixed      = 1 + 8 + 4                         // op, key, vlen
	reqRegisterFixed  = 8 + 1                             // id, kind
	reqSessOpFixed    = 8 + 1 + 1 + 1 + 8 + 8 + 8 + 8 + 4 // id, kind, op, consistency, minCycle, session, seq, key, vlen
	reqSessBatchFixed = 8 + 1 + 1 + 8 + 8 + 8 + 4         // id, kind, consistency, minCycle, session, firstSeq, count
	reqExpireFixed    = 8 + 1 + 8                         // id, kind, session
	reqWatchFixed     = 8 + 1 + 8 + 8 + 1 + 8             // id, kind, watchID, key, prefixBits, sinceCycle
	reqUnwatchFixed   = 8 + 1 + 8                         // id, kind, watchID
	reqTxnFixed       = 8 + 1 + 8 + 8                     // id, kind, session, seq (+ txn body)
	respOpFixed       = 8 + 1 + 1 + 1 + 8 + 4             // id, kind, status, code, cycle, vlen
	respBatchFixed    = 8 + 1 + 1 + 8 + 4                 // id, kind, code, cycle, count
	respElemFixed     = 1 + 1 + 4                         // status, code, vlen
	respEventFixed    = 8 + 1 + 1 + 8 + 4                 // watchID, kind, flags, cycle, count
	respEventElem     = 1 + 8 + 4                         // op, key, vlen
)

const eventFlagOverflow uint8 = 1 << 0

func validOp(o Op) bool { return o == OpRead || o == OpWrite || o == OpDelete }

// AppendClientRequestV3 appends q as a length-prefixed frame to b. The
// shape flags take precedence in the order Watch, Unwatch, Txn, Register,
// Expire, Batch; a non-zero Session selects the session op/batch frames.
// Single-op encoding requires exactly one op; Batch forces the batch
// frame shape regardless of op count.
func AppendClientRequestV3(b []byte, q *ClientRequestV2) []byte {
	switch {
	case q.Watch:
		b = putU32(b, uint32(reqWatchFixed))
		b = putU64(b, q.ID)
		b = putU8(b, kindWatch)
		b = putU64(b, q.WatchID)
		b = putU64(b, q.WatchKey)
		b = putU8(b, q.PrefixBits)
		return putU64(b, q.SinceCycle)
	case q.Unwatch:
		b = putU32(b, uint32(reqUnwatchFixed))
		b = putU64(b, q.ID)
		b = putU8(b, kindUnwatch)
		return putU64(b, q.WatchID)
	case q.Txn:
		t := Txn{Guards: q.TxnGuards, Ops: q.TxnOps}
		b = putU32(b, uint32(reqTxnFixed+TxnSize(&t)))
		b = putU64(b, q.ID)
		b = putU8(b, kindTxn)
		b = putU64(b, q.Session)
		b = putU64(b, q.Seq)
		return AppendTxn(b, &t)
	case q.Register:
		b = putU32(b, uint32(reqRegisterFixed))
		b = putU64(b, q.ID)
		return putU8(b, kindRegister)
	case q.Expire:
		b = putU32(b, uint32(reqExpireFixed))
		b = putU64(b, q.ID)
		b = putU8(b, kindExpire)
		return putU64(b, q.Session)
	case q.Batch:
		n := reqBatchFixed
		kind := kindBatch
		if q.Session != 0 {
			n, kind = reqSessBatchFixed, kindSessionBatch
		}
		for i := range q.Ops {
			n += reqElemFixed + len(q.Ops[i].Val)
		}
		b = putU32(b, uint32(n))
		b = putU64(b, q.ID)
		b = putU8(b, kind)
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		if q.Session != 0 {
			b = putU64(b, q.Session)
			b = putU64(b, q.Seq)
		}
		b = putU32(b, uint32(len(q.Ops)))
		for i := range q.Ops {
			op := &q.Ops[i]
			b = putU8(b, uint8(op.Op))
			b = putU64(b, op.Key)
			b = putBytes(b, op.Val)
		}
		return b
	case q.Session != 0:
		op := &q.Ops[0]
		b = putU32(b, uint32(reqSessOpFixed+len(op.Val)))
		b = putU64(b, q.ID)
		b = putU8(b, kindSessionOp)
		b = putU8(b, uint8(op.Op))
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		b = putU64(b, q.Session)
		b = putU64(b, q.Seq)
		b = putU64(b, op.Key)
		return putBytes(b, op.Val)
	default:
		op := &q.Ops[0]
		b = putU32(b, uint32(reqOpFixed+len(op.Val)))
		b = putU64(b, q.ID)
		b = putU8(b, kindOp)
		b = putU8(b, uint8(op.Op))
		b = putU8(b, uint8(q.Consistency))
		b = putU64(b, q.MinCycle)
		b = putU64(b, op.Key)
		return putBytes(b, op.Val)
	}
}

// badClientRequest zeroes *q and returns the ErrClientFrame-wrapped
// reason: a failed parse leaves nothing half-decoded behind.
func badClientRequest(q *ClientRequestV2, format string, a ...any) error {
	*q = ClientRequestV2{}
	return fmt.Errorf("%w: %s", ErrClientFrame, fmt.Sprintf(format, a...))
}

// ParseClientRequestV3Into decodes one request payload (the bytes after
// the length prefix) into *q, reusing the backing arrays of q's Ops,
// TxnGuards and TxnOps when their capacity suffices, and copying values
// into *arena (when non-nil) instead of per-value allocations — the
// server's submit path shares one arena per accepted group. On error *q
// is left zeroed. The arena must not be reused while any parsed value is
// still alive.
func ParseClientRequestV3Into(payload []byte, q *ClientRequestV2, arena *[]byte) error {
	ops, guards, tops := q.Ops[:0], q.TxnGuards[:0], q.TxnOps[:0]
	*q = ClientRequestV2{}
	r := &reader{b: payload}
	q.ID = r.u64()
	kind := r.u8()
	switch kind {
	case kindOp, kindSessionOp:
		var op ClientOp
		op.Op = Op(r.u8())
		q.Consistency = Consistency(r.u8())
		q.MinCycle = r.u64()
		if kind == kindSessionOp {
			q.Session = r.u64()
			q.Seq = r.u64()
		}
		op.Key = r.u64()
		op.Val = r.bytesArena(arena)
		ops = append(ops, op)
	case kindBatch, kindSessionBatch:
		q.Batch = true
		q.Consistency = Consistency(r.u8())
		q.MinCycle = r.u64()
		if kind == kindSessionBatch {
			q.Session = r.u64()
			q.Seq = r.u64()
		}
		count := r.count(reqElemFixed)
		if count == 0 && r.err == nil {
			return badClientRequest(q, "empty batch")
		}
		if cap(ops) < count {
			ops = make([]ClientOp, 0, count)
		}
		for i := 0; i < count; i++ {
			var op ClientOp
			op.Op = Op(r.u8())
			op.Key = r.u64()
			op.Val = r.bytesArena(arena)
			ops = append(ops, op)
		}
	case kindRegister:
		q.Register = true
	case kindExpire:
		q.Expire = true
		q.Session = r.u64()
	case kindWatch:
		q.Watch = true
		q.WatchID = r.u64()
		q.WatchKey = r.u64()
		q.PrefixBits = r.u8()
		q.SinceCycle = r.u64()
		if r.err == nil && q.PrefixBits > 64 {
			return badClientRequest(q, "watch prefix bits %d", q.PrefixBits)
		}
	case kindUnwatch:
		q.Unwatch = true
		q.WatchID = r.u64()
	case kindTxn:
		q.Txn = true
		q.Session = r.u64()
		q.Seq = r.u64()
		t := Txn{Guards: guards, Ops: tops}
		if err := parseTxnBody(r, &t, arena); err != nil {
			*q = ClientRequestV2{}
			return err
		}
		guards, tops = t.Guards, t.Ops
	default:
		return badClientRequest(q, "unknown request kind %d", kind)
	}
	if r.err != nil || r.off != len(payload) {
		return badClientRequest(q, "request (%d bytes)", len(payload))
	}
	// Session frame shapes require a well-formed session ID: zero would
	// re-encode as the sessionless shape (breaking decode∘encode
	// canonicality), and an ID without SessionIDBit could never have
	// been committed by a registration — accepting one would let a
	// client inject a raw Request.Client identity that bypasses the
	// dedup table and collides with connection-scoped reply routing.
	// A txn's zero session submits without dedup; a non-zero one obeys
	// the same rule.
	sessionFrame := kind == kindSessionOp || kind == kindSessionBatch || kind == kindExpire ||
		(kind == kindTxn && q.Session != 0)
	if sessionFrame && !IsSessionID(q.Session) {
		return badClientRequest(q, "invalid session ID %#x", q.Session)
	}
	if q.Consistency > Stale {
		return badClientRequest(q, "unknown consistency %d", uint8(q.Consistency))
	}
	for i := range ops {
		if !validOp(ops[i].Op) {
			return badClientRequest(q, "unknown op %d", uint8(ops[i].Op))
		}
	}
	q.Ops, q.TxnGuards, q.TxnOps = ops, guards, tops
	return nil
}

// AppendClientResponseV3 appends resp as a length-prefixed frame to b:
// the event-push shape when Event is set, the batch shape when Batch is,
// the single-op shape otherwise.
func AppendClientResponseV3(b []byte, resp *ClientResponseV2) []byte {
	switch {
	case resp.Event:
		n := respEventFixed
		for i := range resp.Events {
			n += respEventElem + len(resp.Events[i].Val)
		}
		b = putU32(b, uint32(n))
		b = putU64(b, resp.ID)
		b = putU8(b, kindEvent)
		var flags uint8
		if resp.Overflow {
			flags |= eventFlagOverflow
		}
		b = putU8(b, flags)
		b = putU64(b, resp.Cycle)
		b = putU32(b, uint32(len(resp.Events)))
		for i := range resp.Events {
			e := &resp.Events[i]
			b = putU8(b, uint8(e.Op))
			b = putU64(b, e.Key)
			b = putBytes(b, e.Val)
		}
		return b
	case resp.Batch:
		n := respBatchFixed
		for i := range resp.Results {
			n += respElemFixed + len(resp.Results[i].Val)
		}
		b = putU32(b, uint32(n))
		b = putU64(b, resp.ID)
		b = putU8(b, kindBatch)
		b = putU8(b, resp.Code)
		b = putU64(b, resp.Cycle)
		b = putU32(b, uint32(len(resp.Results)))
		for i := range resp.Results {
			b = putU8(b, resp.Results[i].Status)
			b = putU8(b, resp.Results[i].Code)
			b = putBytes(b, resp.Results[i].Val)
		}
		return b
	default:
		b = putU32(b, uint32(respOpFixed+len(resp.Val)))
		b = putU64(b, resp.ID)
		b = putU8(b, kindOp)
		b = putU8(b, resp.Status)
		b = putU8(b, resp.Code)
		b = putU64(b, resp.Cycle)
		return putBytes(b, resp.Val)
	}
}

// ParseClientResponseV3 decodes one response payload (the bytes after
// the length prefix). Values are copied out of payload.
func ParseClientResponseV3(payload []byte) (ClientResponseV2, error) {
	r := &reader{b: payload}
	var resp ClientResponseV2
	var flags uint8
	resp.ID = r.u64()
	kind := r.u8()
	switch kind {
	case kindOp:
		resp.Status = r.u8()
		resp.Code = r.u8()
		resp.Cycle = r.u64()
		resp.Val = r.bytes()
	case kindBatch:
		resp.Batch = true
		resp.Code = r.u8()
		resp.Cycle = r.u64()
		count := r.count(respElemFixed)
		resp.Results = make([]ClientResult, 0, count)
		for i := 0; i < count; i++ {
			var res ClientResult
			res.Status = r.u8()
			res.Code = r.u8()
			res.Val = r.bytes()
			resp.Results = append(resp.Results, res)
		}
	case kindEvent:
		resp.Event = true
		flags = r.u8()
		resp.Cycle = r.u64()
		count := r.count(respEventElem)
		if count > 0 && r.err == nil {
			resp.Events = make([]Event, 0, count)
		}
		for i := 0; i < count; i++ {
			var e Event
			e.Op = Op(r.u8())
			e.Key = r.u64()
			e.Val = r.bytes()
			if r.err == nil && e.Op != OpWrite && e.Op != OpDelete {
				return ClientResponseV2{}, fmt.Errorf("%w: event op %d", ErrClientFrame, uint8(e.Op))
			}
			resp.Events = append(resp.Events, e)
		}
	default:
		return ClientResponseV2{}, fmt.Errorf("%w: unknown response kind %d", ErrClientFrame, kind)
	}
	if r.err != nil || r.off != len(payload) {
		return ClientResponseV2{}, fmt.Errorf("%w: response (%d bytes)", ErrClientFrame, len(payload))
	}
	if flags&^eventFlagOverflow != 0 {
		return ClientResponseV2{}, fmt.Errorf("%w: event flags %#x", ErrClientFrame, flags)
	}
	resp.Overflow = flags&eventFlagOverflow != 0
	if resp.Status > ClientStatusErr {
		return ClientResponseV2{}, fmt.Errorf("%w: unknown status %d", ErrClientFrame, resp.Status)
	}
	for i := range resp.Results {
		if resp.Results[i].Status > ClientStatusErr {
			return ClientResponseV2{}, fmt.Errorf("%w: unknown status %d", ErrClientFrame, resp.Results[i].Status)
		}
	}
	return resp, nil
}
