package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	"canopus/internal/engine"
	"canopus/internal/wire"
)

// scriptConn is an inbound connection whose reads return exactly the
// scripted chunks, then EOF: it lets a test place read boundaries at any
// byte, which a real socket does not.
type scriptConn struct {
	net.Conn // nil: readLoop only reads and closes
	chunks   [][]byte
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func (c *scriptConn) Close() error { c.closed = true; return nil }

// recorder keeps what it received the way the ownership rule on
// engine.Machine.Recv demands: by value (here: re-encoded), never the
// message itself.
type recorder struct {
	env  engine.Env
	from []wire.NodeID
	got  [][]byte
	// echoTo, when not NoNode, gets one JoinRequest per received message, so the
	// number of turn buffers the runner flushes counts the turns.
	echoTo wire.NodeID
	// scribble overwrites every SeqAppend after recording it.
	scribble bool
}

func (m *recorder) Init(env engine.Env)   { m.env = env }
func (m *recorder) Timer(engine.TimerTag) {}
func (m *recorder) Recv(from wire.NodeID, msg wire.Message) {
	m.from = append(m.from, from)
	m.got = append(m.got, msg.(wire.Encodable).AppendTo(nil))
	if m.echoTo != wire.NoNode {
		m.env.Send(m.echoTo, &wire.JoinRequest{From: m.env.ID(), Nonce: uint64(len(m.got))})
	}
	if a, ok := msg.(*wire.SeqAppend); ok && m.scribble {
		for i := range a.Entries {
			a.Entries[i] = wire.SeqEntry{Epoch: 0xdead}
		}
		a.Entries = append(a.Entries, wire.SeqEntry{Epoch: 0xbeef}, wire.SeqEntry{Epoch: 0xbeef})
		a.Epoch, a.Seq, a.PrevEpoch, a.Commit = 0xbad, 0xbad, 0xbad, 0xbad
	}
}

// recvRunner is a runner nobody dials: tests feed readLoop directly.
// Peer 9 has an address nothing listens on, for echoes.
func recvRunner(t testing.TB, m engine.Machine) *Runner {
	t.Helper()
	r, err := NewRunner(0, "127.0.0.1:0", map[wire.NodeID]string{9: "127.0.0.1:1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Logf = func(string, ...interface{}) {}
	r.Attach(m)
	t.Cleanup(r.Close)
	return r
}

// testStream is a stream of frames covering every decode path: scratch
// kinds (with and without entries, with a payload), an interned vnode, and
// heap kinds.
func testStream() (stream []byte, frames [][]byte) {
	proposal := &wire.Proposal{Cycle: 3, Round: 1, Origin: 2, Num: 77, Batches: []*wire.Batch{{
		Origin: 2, NumWrite: 2,
		Reqs: []wire.Request{
			{Client: 1, Seq: 1, Op: wire.OpWrite, Key: 10, Val: []byte("ten")},
			{Client: 1, Seq: 2, Op: wire.OpWrite, Key: 11, Val: []byte("eleven")},
		},
	}}}
	msgs := []wire.Encodable{
		&wire.SeqAppend{Epoch: 1<<32 | 2, Seq: 7, PrevEpoch: 1<<32 | 2, Commit: 6, Trim: 2,
			Entries: []wire.SeqEntry{{Epoch: 1<<32 | 2, Origin: 2, OSeq: 5, Payload: proposal}, {Epoch: 1<<32 | 2, Origin: 1}}},
		&wire.SeqAck{Epoch: 1<<32 | 2, From: 1, Match: 8},
		&wire.ProposalRequest{Cycle: 4, Round: 2, VNode: "1.2", From: 3},
		&wire.JoinRequest{From: 2, Nonce: 9},
		&wire.SeqAppend{Epoch: 1<<32 | 2, Seq: 9, PrevEpoch: 1<<32 | 2, Commit: 8, Trim: 2},
		&wire.SeqForward{Epoch: 1<<32 | 2, Origin: 3, OSeq: 6, Match: 8, Payload: proposal},
		proposal,
		&wire.ProposalRequest{Cycle: 5, Round: 2, VNode: "1.2", From: 3},
		&wire.SeqAppend{Epoch: 2<<32 | 1, Seq: 2, PrevEpoch: 1<<32 | 2, Commit: 1,
			Entries: []wire.SeqEntry{{Epoch: 2<<32 | 1, Origin: 1, Payload: &wire.GroupClosed{Origin: 4, Inc: 1}}}},
	}
	for i, m := range msgs {
		f := appendFrame(nil, wire.NodeID(i%3+1), m)
		frames = append(frames, f)
		stream = append(stream, f...)
	}
	return stream, frames
}

// requireFrames fails unless the recorder holds exactly the given frames
// (as encoded by appendFrame), in order.
func requireFrames(t *testing.T, m *recorder, frames [][]byte) {
	t.Helper()
	if len(m.got) != len(frames) {
		t.Fatalf("delivered %d messages, want %d", len(m.got), len(frames))
	}
	for i, f := range frames {
		if want := wire.NodeID(int32(binary.LittleEndian.Uint32(f[4:]))); m.from[i] != want {
			t.Fatalf("message %d: sender %v, want %v", i, m.from[i], want)
		}
		if !bytes.Equal(m.got[i], f[8:]) {
			t.Fatalf("message %d arrived as % x, sent % x", i, m.got[i], f[8:])
		}
	}
}

// TestBurstIsOneTurn: frames that arrive in one socket read are delivered
// in order and in one machine turn — the echoes they cause leave as a
// single turn buffer.
func TestBurstIsOneTurn(t *testing.T) {
	m := &recorder{echoTo: 9}
	r := recvRunner(t, m)
	stream, frames := testStream()
	before := r.stats.turnBufs.Load()
	r.readLoop(&scriptConn{chunks: [][]byte{stream}})
	requireFrames(t, m, frames)
	if turns := r.stats.turnBufs.Load() - before; turns != 1 {
		t.Fatalf("%d frames in one read flushed %d turn buffers to the echo peer, want 1", len(frames), turns)
	}
	if reads := r.stats.reads.Load(); reads != 1 {
		t.Fatalf("read turns = %d, want 1", reads)
	}

	// The same frames one read apiece: one turn apiece.
	m2 := &recorder{echoTo: 9}
	r2 := recvRunner(t, m2)
	r2.readLoop(&scriptConn{chunks: append([][]byte(nil), frames...)}) // Read consumes the list
	requireFrames(t, m2, frames)
	if turns := r2.stats.turnBufs.Load(); turns != uint64(len(frames)) {
		t.Fatalf("%d single-frame reads flushed %d turn buffers, want one each", len(frames), turns)
	}
}

// TestFramesSplitAtEveryOffset cuts the stream in two at every byte: the
// partial frame at the end of the first read must be completed by the
// second, whatever it cuts through.
func TestFramesSplitAtEveryOffset(t *testing.T) {
	stream, frames := testStream()
	for cut := 1; cut < len(stream); cut++ {
		m := &recorder{echoTo: wire.NoNode}
		r := recvRunner(t, m)
		r.readLoop(&scriptConn{chunks: [][]byte{stream[:cut], stream[cut:]}})
		if len(m.got) != len(frames) {
			t.Fatalf("cut at %d: delivered %d messages, want %d", cut, len(m.got), len(frames))
		}
		requireFrames(t, m, frames)
		r.Close()
	}
}

// TestFrameLargerThanReadBuffer: a frame that does not fit the reader's
// buffer grows it, with frames before and after intact.
func TestFrameLargerThanReadBuffer(t *testing.T) {
	big := &wire.Proposal{Cycle: 1, Round: 1, Batches: []*wire.Batch{{
		Reqs: []wire.Request{{Op: wire.OpWrite, Key: 1, Val: bytes.Repeat([]byte{7}, 3*readBufSize)}}, NumWrite: 1,
	}}}
	frames := [][]byte{
		appendFrame(nil, 1, &wire.JoinRequest{From: 1, Nonce: 1}),
		appendFrame(nil, 1, big),
		appendFrame(nil, 1, &wire.JoinRequest{From: 1, Nonce: 2}),
	}
	stream := bytes.Join(frames, nil)
	m := &recorder{echoTo: wire.NoNode}
	r := recvRunner(t, m)
	// Reads of at most 1000 bytes, so the big frame takes many.
	var chunks [][]byte
	for rest := stream; len(rest) > 0; {
		n := min(1000, len(rest))
		chunks, rest = append(chunks, rest[:n]), rest[n:]
	}
	r.readLoop(&scriptConn{chunks: chunks})
	requireFrames(t, m, frames)
}

// TestBadFrameMidBurst: an undecodable or oversized frame in the middle of
// a burst closes the connection, but only after the frames ahead of it —
// same read or not — have been delivered. Nothing behind it is.
func TestBadFrameMidBurst(t *testing.T) {
	stream, frames := testStream()
	good := bytes.Join(frames[:3], nil)
	undecodable := appendFrame(nil, 1, &wire.JoinRequest{From: 1, Nonce: 1})
	undecodable[8] = 0xEE // no such kind
	oversized := []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}
	for name, bad := range map[string][]byte{"undecodable": undecodable, "oversized": oversized} {
		m := &recorder{echoTo: wire.NoNode}
		r := recvRunner(t, m)
		conn := &scriptConn{chunks: [][]byte{append(append(append([]byte(nil), good...), bad...), stream...)}}
		r.readLoop(conn)
		if len(m.got) != 3 {
			t.Fatalf("%s frame: delivered %d messages, want the 3 ahead of it", name, len(m.got))
		}
		requireFrames(t, m, frames[:3])
		if !conn.closed {
			t.Fatalf("%s frame: connection left open", name)
		}
	}
}

// TestScratchDoesNotLeakBetweenMessages is the receive side of the
// ownership contract. The leaf broadcast's control messages live in
// scratch the reader reuses, so a machine may do what it likes to the
// message it was handed — overwrite it, append to its Entries — and no
// later message, in the same turn or a later one, shows a trace of it:
// every decode rewrites its slot in full and Entries cannot grow into a
// neighbour's. What a machine copied by value (here: the recorder's
// encoding, in the broadcast: the log entries) is untouched by the reuse.
func TestScratchDoesNotLeakBetweenMessages(t *testing.T) {
	stream, frames := testStream()
	var chunks [][]byte
	var want [][]byte
	for round := 0; round < 3; round++ { // three turns over the same scratch
		chunks = append(chunks, stream)
		want = append(want, frames...)
	}
	m := &recorder{echoTo: wire.NoNode, scribble: true}
	r := recvRunner(t, m)
	r.readLoop(&scriptConn{chunks: chunks})
	requireFrames(t, m, want)
}

// FuzzFrameStream: whatever bytes arrive and however reads cut them up,
// the reader never panics, and what it delivers before giving up depends
// on the bytes alone — the same stream in one read delivers the same
// messages.
func FuzzFrameStream(f *testing.F) {
	stream, frames := testStream()
	f.Add(stream, []byte{1})
	f.Add(stream, []byte{7, 0, 200, 3})
	corrupt := append([]byte(nil), stream...)
	corrupt[len(frames[0])+len(frames[1])+8] = 0xEE
	f.Add(corrupt, []byte{13})
	f.Add(append(append([]byte(nil), frames[3]...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3), []byte{2, 5})
	f.Fuzz(func(t *testing.T, data []byte, cuts []byte) {
		whole := &recorder{echoTo: wire.NoNode}
		recvRunner(t, whole).readLoop(&scriptConn{chunks: [][]byte{data}})

		var chunks [][]byte
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			n = min(n, len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		split := &recorder{echoTo: wire.NoNode}
		recvRunner(t, split).readLoop(&scriptConn{chunks: chunks})

		if len(split.got) != len(whole.got) {
			t.Fatalf("split reads delivered %d messages, one read %d", len(split.got), len(whole.got))
		}
		for i := range whole.got {
			if split.from[i] != whole.from[i] || !bytes.Equal(split.got[i], whole.got[i]) {
				t.Fatalf("message %d differs between split reads and one read", i)
			}
		}
	})
}
