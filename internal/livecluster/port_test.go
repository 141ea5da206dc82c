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
