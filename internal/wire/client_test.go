package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
)

// goldenRequests and goldenResponses pair every frame shape with the
// bytes the encoders of the commit before the codecs were folded into one
// (PR 21, 0711417: AppendClientRequestV3 / AppendClientResponseV3 over
// these very structs) produced for it. They are the wire-compatibility
// proof: a client or server built then talks to one built now.
var goldenRequests = []struct {
	name string
	q    ClientRequestV2
	hex  string
}{
	{"op write", ClientRequestV2{ID: 1, Consistency: Linearizable, Ops: []ClientOp{{Op: OpWrite, Key: 7, Val: []byte("hello")}}},
		"240000000100000000000000010100000000000000000007000000000000000500000068656c6c6f"},
	{"op read stale", ClientRequestV2{ID: 2, Consistency: Stale, Ops: []ClientOp{{Op: OpRead, Key: 9}}},
		"1f00000002000000000000000100020000000000000000090000000000000000000000"},
	{"op read sequential", ClientRequestV2{ID: 3, Consistency: Sequential, MinCycle: 41, Ops: []ClientOp{{Op: OpRead, Key: 0}}},
		"1f00000003000000000000000100012900000000000000000000000000000000000000"},
	{"op delete", ClientRequestV2{ID: 4, Consistency: Linearizable, Ops: []ClientOp{{Op: OpDelete, Key: ^uint64(0)}}},
		"1f00000004000000000000000102000000000000000000ffffffffffffffff00000000"},
	{"batch", ClientRequestV2{ID: 5, Batch: true, Consistency: Sequential, MinCycle: 9, Ops: []ClientOp{
		{Op: OpWrite, Key: 1, Val: []byte("a")},
		{Op: OpRead, Key: 2},
		{Op: OpDelete, Key: 3},
	}}, "3e0000000500000000000000020109000000000000000300000001010000000000000001000000610002000000000000000000000002030000000000000000000000"},
	{"batch of one", ClientRequestV2{ID: 6, Batch: true, Consistency: Linearizable, Ops: []ClientOp{{Op: OpRead, Key: 4}}},
		"230000000600000000000000020000000000000000000100000000040000000000000000000000"},
	{"register", ClientRequestV2{ID: 7, Register: true},
		"09000000070000000000000003"},
	{"expire", ClientRequestV2{ID: 8, Expire: true, Session: 99 | SessionIDBit},
		"110000000800000000000000066300000000000080"},
	{"session op", ClientRequestV2{ID: 9, Session: 12 | SessionIDBit, Seq: 5, Consistency: Linearizable,
		Ops: []ClientOp{{Op: OpWrite, Key: 3, Val: []byte("s")}}},
		"30000000090000000000000004010000000000000000000c00000000000080050000000000000003000000000000000100000073"},
	{"session batch", ClientRequestV2{ID: 10, Batch: true, Session: 12 | SessionIDBit, Seq: 6, Consistency: Stale, Ops: []ClientOp{
		{Op: OpWrite, Key: 1, Val: []byte("a")},
		{Op: OpRead, Key: 2},
		{Op: OpDelete, Key: 3},
	}}, "4e0000000a00000000000000050200000000000000000c0000000000008006000000000000000300000001010000000000000001000000610002000000000000000000000002030000000000000000000000"},
	{"watch key", ClientRequestV2{ID: 20, Watch: true, WatchID: 1, WatchKey: 7, PrefixBits: 64},
		"2200000014000000000000000701000000000000000700000000000000400000000000000000"},
	{"watch all since", ClientRequestV2{ID: 21, Watch: true, WatchID: 2, WatchKey: 0, PrefixBits: 0, SinceCycle: 99},
		"2200000015000000000000000702000000000000000000000000000000006300000000000000"},
	{"watch prefix", ClientRequestV2{ID: 22, Watch: true, WatchID: 3, WatchKey: 0xAB00000000000000, PrefixBits: 8},
		"22000000160000000000000007030000000000000000000000000000ab080000000000000000"},
	{"unwatch", ClientRequestV2{ID: 23, Unwatch: true, WatchID: 2},
		"110000001700000000000000080200000000000000"},
	{"txn in session", ClientRequestV2{ID: 24, Txn: true, Session: 5 | SessionIDBit, Seq: 3,
		TxnGuards: []TxnGuard{{Kind: GuardValueEq, Key: 7}},
		TxnOps:    []TxnOp{{Op: OpWrite, Key: 7, Val: []byte("me"), Ephemeral: true}}},
		"470000001800000000000000090500000000000080030000000000000001010000000107000000000000000000000000000000ffffffff0100000001010700000000000000020000006d65"},
	{"txn without session", ClientRequestV2{ID: 25, Txn: true,
		TxnGuards: []TxnGuard{{Kind: GuardCycleLE, Key: 1, Cycle: 12}},
		TxnOps:    []TxnOp{{Op: OpWrite, Key: 1, Val: []byte("x")}, {Op: OpDelete, Key: 2}}},
		"540000001900000000000000090000000000000000000000000000000001010000000201000000000000000c00000000000000ffffffff020000000100010000000000000001000000780200020000000000000000000000"},
}

var goldenResponses = []struct {
	name string
	resp ClientResponseV2
	hex  string
}{
	{"op ok", ClientResponseV2{ID: 1, Status: ClientStatusOK, Cycle: 12, Val: []byte("v")},
		"1800000001000000000000000100000c000000000000000100000076"},
	{"op nil", ClientResponseV2{ID: 2, Status: ClientStatusNil, Cycle: 3},
		"170000000200000000000000010100030000000000000000000000"},
	{"op err", ClientResponseV2{ID: 3, Status: ClientStatusErr, Code: CodeDraining, Val: []byte("draining")},
		"1f0000000300000000000000010201000000000000000008000000647261696e696e67"},
	{"batch", ClientResponseV2{ID: 5, Batch: true, Cycle: 14, Results: []ClientResult{
		{Status: ClientStatusOK, Val: []byte("a")},
		{Status: ClientStatusNil},
		{Status: ClientStatusOK},
	}}, "29000000050000000000000002000e000000000000000300000000000100000061010000000000000000000000"},
	{"batch rejected", ClientResponseV2{ID: 6, Batch: true, Code: CodeStalled, Results: []ClientResult{{Status: ClientStatusErr, Val: []byte("node stalled")}}},
		"280000000600000000000000020200000000000000000100000002000c0000006e6f6465207374616c6c6564"},
	{"op session expired", ClientResponseV2{ID: 7, Status: ClientStatusErr, Code: CodeSessionExpired, Cycle: 7, Val: []byte("session expired")},
		"26000000070000000000000001020407000000000000000f00000073657373696f6e2065787069726564"},
	{"batch slot expired", ClientResponseV2{ID: 8, Batch: true, Cycle: 20, Results: []ClientResult{
		{Status: ClientStatusOK},
		{Status: ClientStatusErr, Code: CodeSessionExpired, Val: []byte("session expired")},
	}}, "310000000800000000000000020014000000000000000200000000000000000002040f00000073657373696f6e2065787069726564"},
	{"event", ClientResponseV2{ID: 1, Event: true, Cycle: 40, Events: []Event{
		{Op: OpWrite, Key: 7, Val: []byte("v")},
		{Op: OpDelete, Key: 9},
	}}, "3100000001000000000000000700280000000000000002000000010700000000000000010000007602090000000000000000000000"},
	{"overflow event", ClientResponseV2{ID: 2, Event: true, Cycle: 41, Overflow: true},
		"1600000002000000000000000701290000000000000000000000"},
}

// goldenFrame decodes a fixture and checks its length prefix.
func goldenFrame(t *testing.T, name, h string) []byte {
	t.Helper()
	frame, err := hex.DecodeString(h)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("%s: length prefix %d, payload %d", name, n, len(frame)-4)
	}
	return frame
}

// TestClientGoldenFrames: the codec emits the fixture bytes for every
// frame shape and parses them back to the struct they were made from.
func TestClientGoldenFrames(t *testing.T) {
	for _, c := range goldenRequests {
		frame := goldenFrame(t, c.name, c.hex)
		if enc := AppendClientRequestV3(nil, &c.q); !bytes.Equal(enc, frame) {
			t.Errorf("%s: encoded\n%x\nwant\n%x", c.name, enc, frame)
		}
		var got ClientRequestV2
		if err := ParseClientRequestV3Into(frame[4:], &got, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.q) {
			t.Errorf("%s: parsed\n%+v\nwant\n%+v", c.name, got, c.q)
		}
	}
	for _, c := range goldenResponses {
		frame := goldenFrame(t, c.name, c.hex)
		if enc := AppendClientResponseV3(nil, &c.resp); !bytes.Equal(enc, frame) {
			t.Errorf("%s: encoded\n%x\nwant\n%x", c.name, enc, frame)
		}
		got, err := ParseClientResponseV3(frame[4:])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.resp) {
			t.Errorf("%s: parsed\n%+v\nwant\n%+v", c.name, got, c.resp)
		}
	}
}

// TestClientParseReusesSlots: parsing into a used slot keeps no field of
// the frame it held before, whatever the two kinds are.
func TestClientParseReusesSlots(t *testing.T) {
	var slot ClientRequestV2
	for i := range goldenRequests {
		for _, c := range []int{i, (i + 7) % len(goldenRequests)} {
			want := &goldenRequests[c]
			frame := goldenFrame(t, want.name, want.hex)
			if err := ParseClientRequestV3Into(frame[4:], &slot, nil); err != nil {
				t.Fatalf("%s: %v", want.name, err)
			}
			if enc := AppendClientRequestV3(nil, &slot); !bytes.Equal(enc, frame) {
				t.Fatalf("%s parsed into a used slot re-encodes as\n%x\nwant\n%x", want.name, enc, frame)
			}
			if len(slot.Ops) != len(want.q.Ops) || len(slot.TxnGuards) != len(want.q.TxnGuards) || len(slot.TxnOps) != len(want.q.TxnOps) {
				t.Fatalf("%s parsed into a used slot kept stale ops: %+v", want.name, slot)
			}
		}
	}
}

func TestClientFrameErrors(t *testing.T) {
	parse := func(payload []byte) error {
		var q ClientRequestV2
		return ParseClientRequestV3Into(payload, &q, nil)
	}
	op := ClientRequestV2{ID: 1, Ops: []ClientOp{{Op: OpRead, Key: 2}}}
	mutate := func(q *ClientRequestV2, at int, b byte) []byte {
		frame := AppendClientRequestV3(nil, q)
		frame[4+at] = b
		return frame[4:]
	}
	sessOp := ClientRequestV2{ID: 1, Session: 5 | SessionIDBit, Seq: 1,
		Ops: []ClientOp{{Op: OpWrite, Key: 2, Val: []byte("x")}}}
	zeroSession := AppendClientRequestV3(nil, &sessOp)
	binary.LittleEndian.PutUint64(zeroSession[4+8+1+1+1+8:], 0)
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"truncated", []byte{1, 2, 3}},
		{"trailing byte", append(AppendClientRequestV3(nil, &op)[4:], 0)},
		{"trailing byte on a watch", append(AppendClientRequestV3(nil,
			&ClientRequestV2{ID: 1, Watch: true, WatchID: 1, WatchKey: 2, PrefixBits: 64})[4:], 0)},
		{"unknown kind 0", mutate(&op, 8, 0)},
		{"unknown kind 10", mutate(&op, 8, 10)},
		{"unknown op", mutate(&op, 8+1, 9)},
		{"unknown consistency", mutate(&op, 8+1+1, 7)},
		{"empty batch", AppendClientRequestV3(nil, &ClientRequestV2{ID: 1, Batch: true})[4:]},
		// A session frame with a zero session ID is non-canonical (it
		// would re-encode as the sessionless shape).
		{"session op with zero session", zeroSession[4:]},
		{"txn with non-session ID", AppendClientRequestV3(nil, &ClientRequestV2{ID: 1, Txn: true, Session: 5, Seq: 1,
			TxnOps: []TxnOp{{Op: OpWrite, Key: 1}}})[4:]},
		{"watch with 65 prefix bits", AppendClientRequestV3(nil,
			&ClientRequestV2{ID: 1, Watch: true, WatchID: 1, WatchKey: 2, PrefixBits: 65})[4:]},
	} {
		if err := parse(c.payload); !errors.Is(err, ErrClientFrame) {
			t.Errorf("request, %s: parsed (err %v)", c.name, err)
		}
	}

	ok := ClientResponseV2{ID: 1, Status: ClientStatusOK, Cycle: 3, Val: []byte("v")}
	event := ClientResponseV2{ID: 1, Event: true, Cycle: 3}
	mutateResp := func(resp *ClientResponseV2, at int, b byte) []byte {
		frame := AppendClientResponseV3(nil, resp)
		frame[4+at] = b
		return frame[4:]
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"truncated", []byte{1, 2, 3}},
		{"trailing byte", append(AppendClientResponseV3(nil, &ok)[4:], 0)},
		{"unknown kind", mutateResp(&ok, 8, 3)},
		{"unknown status", mutateResp(&ok, 8+1, 3)},
		{"unknown event flags", mutateResp(&event, 8+1, 0x80)},
	} {
		if _, err := ParseClientResponseV3(c.payload); !errors.Is(err, ErrClientFrame) {
			t.Errorf("response, %s: parsed (err %v)", c.name, err)
		}
	}

	// The preamble's first byte is outside ASCII, so a text line can
	// never be taken for it.
	if ClientMagicV3 != [4]byte{0xC4, 'N', 'P', 0x03} {
		t.Fatalf("preamble changed: % x", ClientMagicV3)
	}
}

// chunkReader returns its chunks one Read at a time, then io.EOF.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// readAll runs ReadClientFrames over the chunks and returns a copy of
// every payload handled, how often the burst hook ran, and the error that
// ended the stream.
func readAll(chunks ...[]byte) (payloads [][]byte, bursts int, err error) {
	err = ReadClientFrames(&chunkReader{chunks: chunks}, func(payload []byte) error {
		payloads = append(payloads, bytes.Clone(payload))
		clear(payload) // what the next read would do to it
		return nil
	}, func() { bursts++ })
	return payloads, bursts, err
}

// goldenStream is every golden request as one byte stream, and the
// payloads a reader must hand out for it.
func goldenStream(t *testing.T) (stream []byte, payloads [][]byte) {
	for _, c := range goldenRequests {
		frame := goldenFrame(t, c.name, c.hex)
		stream = append(stream, frame...)
		payloads = append(payloads, frame[4:])
	}
	return stream, payloads
}

func TestReadClientFrames(t *testing.T) {
	stream, want := goldenStream(t)

	t.Run("split at every byte", func(t *testing.T) {
		for cut := 1; cut < len(stream); cut++ {
			got, _, err := readAll(bytes.Clone(stream[:cut]), bytes.Clone(stream[cut:]))
			if !errors.Is(err, io.EOF) || !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d: %d payloads (err %v), want %d", cut, len(got), err, len(want))
			}
		}
	})

	// One Read that returns N complete frames and half of another: N
	// calls of the frame handler, then one burst — where the port submits
	// its group — and the rest of the last frame is a burst of its own.
	t.Run("one burst per read", func(t *testing.T) {
		last := len(stream) - len(want[len(want)-1])/2
		var events []string
		err := ReadClientFrames(&chunkReader{chunks: [][]byte{stream[:last], stream[last:]}},
			func([]byte) error { events = append(events, "frame"); return nil },
			func() { events = append(events, "burst") })
		wantEvents := make([]string, 0, len(want)+2)
		for range want[1:] {
			wantEvents = append(wantEvents, "frame")
		}
		wantEvents = append(wantEvents, "burst", "frame", "burst")
		if !errors.Is(err, io.EOF) || !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("got %v (err %v), want %v", events, err, wantEvents)
		}
	})

	t.Run("frame larger than the buffer", func(t *testing.T) {
		big := ClientRequestV2{ID: 2, Ops: []ClientOp{{Op: OpWrite, Key: 1, Val: bytes.Repeat([]byte{7}, 3*ClientReadBuf)}}}
		in := AppendClientRequestV3(bytes.Clone(stream), &big)
		in = append(in, stream...)
		got, _, err := readAll(in)
		if !errors.Is(err, io.EOF) || len(got) != 2*len(want)+1 ||
			!bytes.Equal(got[len(want)], AppendClientRequestV3(nil, &big)[4:]) ||
			!reflect.DeepEqual(got[len(want)+1:], want) {
			t.Fatalf("%d payloads (err %v), want %d with the large one intact", len(got), err, 2*len(want)+1)
		}
	})

	t.Run("oversized header after two frames", func(t *testing.T) {
		two := len(want[0]) + len(want[1]) + 8
		got, bursts, err := readAll(append(bytes.Clone(stream[:two]), 0xFF, 0xFF, 0xFF, 0xFF))
		if !errors.Is(err, ErrClientFrame) || !reflect.DeepEqual(got, want[:2]) || bursts != 1 {
			t.Fatalf("%d payloads, %d bursts, err %v; want both frames, one burst, ErrClientFrame", len(got), bursts, err)
		}
	})

	t.Run("handler error", func(t *testing.T) {
		stop := errors.New("stop")
		handled := 0
		err := ReadClientFrames(&chunkReader{chunks: [][]byte{stream}}, func([]byte) error {
			if handled++; handled == 2 {
				return stop
			}
			return nil
		}, nil)
		if err != stop || handled != 2 {
			t.Fatalf("got %v after %d frames", err, handled)
		}
	})
}

// FuzzClientFrameStream: whatever bytes arrive and however reads cut them
// up, the reader never panics, and what it hands out before giving up
// depends on the bytes alone — the same stream in one read yields the same
// payloads and the same kind of ending.
func FuzzClientFrameStream(f *testing.F) {
	var stream []byte
	for _, c := range goldenRequests {
		frame, _ := hex.DecodeString(c.hex)
		stream = append(stream, frame...)
	}
	f.Add(stream, []byte{1})
	f.Add(stream, []byte{7, 0, 200, 3})
	f.Add(append(bytes.Clone(stream[:40]), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3), []byte{2, 5})
	f.Add(stream[:len(stream)-3], []byte{13})
	f.Fuzz(func(t *testing.T, data []byte, cuts []byte) {
		if len(data) >= 4 {
			// Keep the first header small: a 16 MB frame is valid and
			// would only make the fuzzer allocate.
			data[2], data[3] = 0, 0
		}
		whole, _, wholeErr := readAll(bytes.Clone(data))

		var chunks [][]byte
		for i, rest := 0, bytes.Clone(data); len(rest) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			n = min(n, len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		split, _, splitErr := readAll(chunks...)

		if errors.Is(wholeErr, ErrClientFrame) != errors.Is(splitErr, ErrClientFrame) {
			t.Fatalf("one read ended with %v, split reads with %v", wholeErr, splitErr)
		}
		if len(split) != len(whole) {
			t.Fatalf("split reads yielded %d payloads, one read %d", len(split), len(whole))
		}
		for i := range whole {
			if !bytes.Equal(split[i], whole[i]) {
				t.Fatalf("payload %d differs between split reads and one read", i)
			}
		}
	})
}
