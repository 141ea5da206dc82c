package livecluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"canopus/internal/wire"
)

// TestPreamble: the port serves wire.ClientMagicV3 and nothing else. A
// connection that opens with a text line, the preamble of a retired
// protocol version, garbage, half a preamble or nothing at all is closed —
// told why where a full wrong preamble arrived — without admitting a
// request, and counted; a v3 connection opened afterwards is served.
func TestPreamble(t *testing.T) {
	defer func(d time.Duration) { preambleTimeout = d }(preambleTimeout)
	preambleTimeout = 200 * time.Millisecond
	c := startCluster(t, 1)
	defer c.Stop(5 * time.Second)
	stats := &c.Port(0).stats

	for _, tc := range []struct {
		name      string
		send      []byte
		halfClose bool
		want      string
	}{
		{"text line", []byte("GET 7\n"), false, badPreambleReply},
		{"v1 magic", []byte{0xC4, 'N', 'P', 0x01}, false, badPreambleReply},
		{"v2 magic", []byte{0xC4, 'N', 'P', 0x02}, false, badPreambleReply},
		{"garbage", []byte{0, 1, 2, 3}, false, badPreambleReply},
		{"two bytes then EOF", wire.ClientMagicV3[:2], true, ""},
		{"nothing at all", nil, false, ""},
	} {
		requests, bad := stats.requests.Load(), stats.badPreamble.Load()
		conn, err := net.Dial("tcp", c.ClientAddr(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.send); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.halfClose {
			conn.(*net.TCPConn).CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The port closes with our surplus bytes unread, which resets the
		// connection; the reply still arrives ahead of the reset.
		got, err := io.ReadAll(conn)
		conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open after 5 s", tc.name)
		}
		if string(got) != tc.want {
			t.Fatalf("%s: port answered %q, want %q", tc.name, got, tc.want)
		}
		if n := stats.badPreamble.Load() - bad; n != 1 {
			t.Fatalf("%s: bad_preamble_total moved by %d, want 1", tc.name, n)
		}
		if n := stats.requests.Load() - requests; n != 0 {
			t.Fatalf("%s: requests_total moved by %d", tc.name, n)
		}
	}

	ctx := context.Background()
	cl := dialClient(t, c, 0)
	if err := cl.Put(ctx, 1, []byte("served")); err != nil {
		t.Fatal(err)
	}
	if val, err := cl.Get(ctx, 1); err != nil || string(val) != "served" {
		t.Fatalf("v3 connection after the bad ones: Get = %q, %v", val, err)
	}
}

// rawConn is a v3 connection driven frame by frame: the tests that are
// about what the port does with a particular sequence of frames on the
// wire write them here, and read every response off resps.
type rawConn struct {
	net.Conn
	resps chan wire.ClientResponseV2
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wire.ClientMagicV3[:]); err != nil {
		t.Fatal(err)
	}
	// Room for every response of the largest test (1,000), so the reader
	// never waits for the test to catch up.
	rc := &rawConn{Conn: conn, resps: make(chan wire.ClientResponseV2, 2048)}
	go func() {
		defer close(rc.resps)
		wire.ReadClientFrames(conn, func(payload []byte) error {
			resp, err := wire.ParseClientResponseV3(payload)
			if err == nil {
				rc.resps <- resp
			}
			return err
		}, nil)
	}()
	return rc
}

// send writes the frames in one Write, so the port finds them in one burst.
func (rc *rawConn) send(t *testing.T, frames ...wire.ClientRequestV2) {
	t.Helper()
	var out []byte
	for i := range frames {
		out = wire.AppendClientRequestV3(out, &frames[i])
	}
	if _, err := rc.Write(out); err != nil {
		t.Fatal(err)
	}
}

// next returns the next response or event.
func (rc *rawConn) next(t *testing.T) wire.ClientResponseV2 {
	t.Helper()
	select {
	case resp, ok := <-rc.resps:
		if !ok {
			t.Fatal("connection closed by the port")
		}
		return resp
	case <-time.After(10 * time.Second):
		t.Fatal("no response within 10 s")
	}
	panic("unreachable")
}

func single(id uint64, op wire.Op, key uint64, val string) wire.ClientRequestV2 {
	q := wire.ClientRequestV2{ID: id, Ops: []wire.ClientOp{{Op: op, Key: key}}}
	if val != "" {
		q.Ops[0].Val = []byte(val)
	}
	return q
}

// TestPipelinedSinglesAnswered: 1,000 single-op frames written to one
// connection at once — more than one group, in however many bursts the
// socket delivers them — are each answered once, under their own ID,
// the reads with the value written to their own key ahead of them.
func TestPipelinedSinglesAnswered(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	rc := dialRaw(t, c.ClientAddr(0))

	const n = 500
	frames := make([]wire.ClientRequestV2, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		frames = append(frames, single(i+1, wire.OpWrite, i, fmt.Sprintf("v%d", i)))
	}
	for i := uint64(0); i < n; i++ {
		frames = append(frames, single(n+i+1, wire.OpRead, i, ""))
	}
	rc.send(t, frames...)

	seen := make(map[uint64]bool, 2*n)
	for range frames {
		resp := rc.next(t)
		if resp.ID < 1 || resp.ID > 2*n || seen[resp.ID] {
			t.Fatalf("unexpected or repeated response ID %d", resp.ID)
		}
		seen[resp.ID] = true
		if resp.Status != wire.ClientStatusOK {
			t.Fatalf("ID %d: status %d code %d (%s)", resp.ID, resp.Status, resp.Code, resp.Val)
		}
		if resp.ID > n {
			if want := fmt.Sprintf("v%d", resp.ID-n-1); string(resp.Val) != want {
				t.Fatalf("read ID %d answered %q, want %q", resp.ID, resp.Val, want)
			}
		}
	}
}

// TestWatchOrderedBetweenOps: frames of one burst are dispatched in frame
// order although WATCH and UNWATCH are handled on the read goroutine and
// the operations around them in machine turns. A write behind a WATCH in
// the same burst is therefore always seen by the watch, and a write behind
// an UNWATCH never: across put, watch+put, unwatch+put the connection
// reads five acks and exactly one event.
func TestWatchOrderedBetweenOps(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	rc := dialRaw(t, c.ClientAddr(0))
	const key, watchID = 42, 9

	var events []wire.ClientResponseV2
	// await reads until every ID in ids has been acked, collecting events.
	await := func(ids ...uint64) {
		t.Helper()
		want := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		for len(want) > 0 {
			resp := rc.next(t)
			switch {
			case resp.Event:
				events = append(events, resp)
			case want[resp.ID] && resp.Status == wire.ClientStatusOK:
				delete(want, resp.ID)
			default:
				t.Fatalf("unexpected response %+v while waiting for %v", resp, want)
			}
		}
	}

	rc.send(t, single(1, wire.OpWrite, key, "before"))
	await(1)
	rc.send(t,
		wire.ClientRequestV2{ID: 2, Watch: true, WatchID: watchID, WatchKey: key, PrefixBits: 64},
		single(3, wire.OpWrite, key, "watched"))
	await(2, 3)
	rc.send(t,
		wire.ClientRequestV2{ID: 4, Unwatch: true, WatchID: watchID},
		single(5, wire.OpWrite, key, "after"))
	await(4, 5)
	// A cycle's events are published ahead of its replies, so an event for
	// "after" would have been read ahead of ack 5.
	if len(events) != 1 || !events[0].Event || events[0].ID != watchID || len(events[0].Events) != 1 ||
		string(events[0].Events[0].Val) != "watched" {
		t.Fatalf("events %+v, want exactly one, for the write behind the WATCH", events)
	}
}

// TestPortAnswers pins what the port answers, frame by frame, for every
// shape an op arrives in — a single-op frame, a slot of a batch frame, a
// transaction and a Cluster.Submit call — under every per-op rule: the
// consistency split, the minCycle bound, a read miss, a session the
// replicated table does not know, and a draining port. Each row sends one
// frame over a raw v3 socket and compares the exact status, code and value
// of the answer, and whether it carries a commit cycle (rejections made
// before the node is asked carry none). The stall rule is not covered: no
// live test here halts a node cheaply.
func TestPortAnswers(t *testing.T) {
	c := startCluster(t, 3)
	defer c.Stop(5 * time.Second)
	p := c.Port(0)
	rc := dialRaw(t, c.ClientAddr(0))
	rc.send(t, single(1, wire.OpWrite, 1, "one"))
	if resp := rc.next(t); resp.Status != wire.ClientStatusOK {
		t.Fatalf("seed write: %+v", resp)
	}

	const far = 1 << 40 // beyond maxMinCycleAhead of any test cluster's cycle
	unknown := wire.SessionIDBit | 0xdead
	ops := func(kv ...any) []wire.ClientOp {
		var out []wire.ClientOp
		for i := 0; i < len(kv); i += 3 {
			op := wire.ClientOp{Op: kv[i].(wire.Op), Key: uint64(kv[i+1].(int))}
			if v := kv[i+2].(string); v != "" {
				op.Val = []byte(v)
			}
			out = append(out, op)
		}
		return out
	}
	stale := func(q wire.ClientRequestV2, minCycle uint64) wire.ClientRequestV2 {
		q.Consistency, q.MinCycle = wire.Stale, minCycle
		return q
	}
	session := func(q wire.ClientRequestV2, s uint64) wire.ClientRequestV2 {
		q.Session, q.Seq = s, 1
		return q
	}
	batch := func(kv ...any) wire.ClientRequestV2 {
		return wire.ClientRequestV2{Batch: true, Ops: ops(kv...)}
	}
	type res = wire.ClientResult
	committed := string(wire.AppendTxnResult(nil, wire.TxnResult{Committed: true, Failed: wire.TxnFailedNone}))
	oversized := wire.ClientRequestV2{Batch: true, Ops: make([]wire.ClientOp, wire.MaxBatchOps+1)}
	for i := range oversized.Ops {
		oversized.Ops[i] = wire.ClientOp{Op: wire.OpRead, Key: uint64(i)}
	}
	txn := wire.ClientRequestV2{Txn: true, TxnOps: []wire.TxnOp{{Op: wire.OpWrite, Key: 3, Val: []byte("three")}}}

	for i, tc := range []struct {
		name     string
		draining bool
		frame    wire.ClientRequestV2
		status   uint8  // single-op answers
		code     uint8  // single-op answers; the frame code of a batch
		val      string // single-op answers
		results  []res  // batch answers, slot by slot
		cycle    bool   // the answer carries a commit cycle
	}{
		{name: "single write", frame: single(0, wire.OpWrite, 2, "two"), cycle: true},
		{name: "single linearizable hit", frame: single(0, wire.OpRead, 1, ""), val: "one", cycle: true},
		{name: "single linearizable miss", frame: single(0, wire.OpRead, 99, ""),
			status: wire.ClientStatusNil, cycle: true},
		{name: "single stale hit", frame: stale(single(0, wire.OpRead, 1, ""), 0), val: "one", cycle: true},
		{name: "single stale miss", frame: stale(single(0, wire.OpRead, 99, ""), 0),
			status: wire.ClientStatusNil, cycle: true},
		{name: "single minCycle too far ahead", frame: stale(single(0, wire.OpRead, 1, ""), far),
			status: wire.ClientStatusErr, code: wire.CodeBadRequest, val: "minCycle too far ahead"},
		{name: "single expired session", frame: session(single(0, wire.OpWrite, 4, "x"), unknown),
			status: wire.ClientStatusErr, code: wire.CodeSessionExpired, val: "session expired", cycle: true},
		{name: "single draining", draining: true, frame: single(0, wire.OpWrite, 4, "x"),
			status: wire.ClientStatusErr, code: wire.CodeDraining, val: "draining"},
		{name: "transaction", frame: txn, val: committed, cycle: true},
		{name: "transaction on an expired session", frame: session(txn, unknown),
			status: wire.ClientStatusErr, code: wire.CodeSessionExpired, val: "session expired", cycle: true},
		{name: "batch linearizable", frame: batch(wire.OpWrite, 5, "five", wire.OpRead, 1, "", wire.OpRead, 99, ""),
			results: []res{{}, {Val: []byte("one")}, {Status: wire.ClientStatusNil}}, cycle: true},
		{name: "batch stale", frame: stale(batch(wire.OpRead, 1, "", wire.OpRead, 99, ""), 0),
			results: []res{{Val: []byte("one")}, {Status: wire.ClientStatusNil}}, cycle: true},
		{name: "batch minCycle too far ahead", frame: stale(batch(wire.OpRead, 1, "", wire.OpWrite, 6, "six"), far),
			results: []res{{Status: wire.ClientStatusErr, Code: wire.CodeBadRequest, Val: []byte("minCycle too far ahead")}, {}},
			cycle:   true},
		{name: "batch expired session", frame: session(batch(wire.OpWrite, 7, "x", wire.OpRead, 1, ""), unknown),
			results: []res{{Status: wire.ClientStatusErr, Code: wire.CodeSessionExpired, Val: []byte("session expired")},
				{Val: []byte("one")}}, cycle: true},
		{name: "batch draining", draining: true, frame: batch(wire.OpWrite, 8, "x"), code: wire.CodeDraining},
		{name: "batch of MaxBatchOps+1 ops", frame: oversized, code: wire.CodeBadRequest},
	} {
		id := uint64(100 + i)
		tc.frame.ID = id
		p.draining.Store(tc.draining)
		rc.send(t, tc.frame)
		resp := rc.next(t)
		p.draining.Store(false)
		if resp.ID != id || resp.Batch != tc.frame.Batch {
			t.Fatalf("%s: answered ID %d batch=%v, want ID %d batch=%v", tc.name, resp.ID, resp.Batch, id, tc.frame.Batch)
		}
		if (resp.Cycle > 0) != tc.cycle {
			t.Errorf("%s: cycle %d, want one: %v", tc.name, resp.Cycle, tc.cycle)
		}
		if resp.Code != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, resp.Code, tc.code)
		}
		if tc.frame.Batch {
			if len(resp.Results) != len(tc.results) {
				t.Fatalf("%s: %d results, want %d", tc.name, len(resp.Results), len(tc.results))
			}
			for i, r := range resp.Results {
				w := tc.results[i]
				if r.Status != w.Status || r.Code != w.Code || string(r.Val) != string(w.Val) {
					t.Errorf("%s: slot %d answered %d/%d/%q, want %d/%d/%q",
						tc.name, i, r.Status, r.Code, r.Val, w.Status, w.Code, w.Val)
				}
			}
			continue
		}
		if resp.Status != tc.status || string(resp.Val) != tc.val {
			t.Errorf("%s: answered %d/%q, want %d/%q", tc.name, resp.Status, resp.Val, tc.status, tc.val)
		}
	}

	// Cluster.Submit: the done callback gets the value and ok=true when
	// served (a miss is a nil value), and ok=false on a draining port —
	// before Submit returns.
	type answer struct {
		val string
		ok  bool
	}
	submit := func(op wire.Op, key uint64, val string) answer {
		ch := make(chan answer, 1)
		var v []byte
		if val != "" {
			v = []byte(val)
		}
		c.Submit(0, op, key, v, func(val []byte, ok bool) { ch <- answer{string(val), ok} })
		select {
		case a := <-ch:
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("Submit: no answer within 10 s")
		}
		panic("unreachable")
	}
	for _, tc := range []struct {
		name     string
		draining bool
		op       wire.Op
		key      uint64
		val      string
		want     answer
	}{
		{"Submit write", false, wire.OpWrite, 9, "nine", answer{"", true}},
		{"Submit hit", false, wire.OpRead, 9, "", answer{"nine", true}},
		{"Submit miss", false, wire.OpRead, 99, "", answer{"", true}},
		{"Submit while draining", true, wire.OpWrite, 10, "x", answer{"", false}},
	} {
		p.draining.Store(tc.draining)
		got := submit(tc.op, tc.key, tc.val)
		p.draining.Store(false)
		if got != tc.want {
			t.Errorf("%s: done(%q, %v), want done(%q, %v)", tc.name, got.val, got.ok, tc.want.val, tc.want.ok)
		}
	}
	if n := p.Outstanding(); n != 0 {
		t.Errorf("%d requests still counted in flight after every answer", n)
	}
}
