package client

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"canopus/internal/wire"
)

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

// replyBurst is what a port writes for one cycle: read and write replies,
// a batch reply, a rejection, and a watch's EVENT push in the middle.
func replyBurst() (stream []byte, want []wire.ClientResponseV2) {
	want = []wire.ClientResponseV2{
		{ID: 1, Status: wire.ClientStatusOK, Cycle: 7, Val: []byte("value-one")},
		{ID: 2, Status: wire.ClientStatusOK, Cycle: 7},
		{ID: 3, Status: wire.ClientStatusNil, Cycle: 7},
		{ID: 900, Event: true, Cycle: 7, Events: []wire.Event{
			{Op: wire.OpWrite, Key: 11, Val: []byte("watched")},
			{Op: wire.OpDelete, Key: 12},
		}},
		{ID: 4, Batch: true, Cycle: 7, Results: []wire.ClientResult{
			{Status: wire.ClientStatusOK, Val: []byte("in-batch")},
			{Status: wire.ClientStatusNil},
		}},
		{ID: 5, Status: wire.ClientStatusErr, Code: wire.CodeDraining, Cycle: 7},
		{ID: 6, Status: wire.ClientStatusOK, Cycle: 8, Val: bytes.Repeat([]byte{0xAB}, 300)},
	}
	for i := range want {
		stream = wire.AppendClientResponseV3(stream, &want[i])
	}
	return stream, want
}

// collect runs wire.ReadClientFrames over r and parses every frame, keeping the
// parsed responses — values included — until the stream ends: a value that
// aliased the read buffer would be overwritten by the frames behind it.
func collect(t *testing.T, r io.Reader) []wire.ClientResponseV2 {
	t.Helper()
	var got []wire.ClientResponseV2
	err := wire.ReadClientFrames(r, func(payload []byte) error {
		resp, err := wire.ParseClientResponseV3(payload)
		if err != nil {
			return err
		}
		got = append(got, resp)
		clear(payload) // what the next read would do to it
		return nil
	}, nil)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("ReadClientFrames ended with %v, want io.EOF", err)
	}
	return got
}

// TestReadFramesSplitAnywhere delivers a burst of replies in two reads,
// split at every byte offset, and in single bytes: the same responses come
// out, in order, with their values intact.
func TestReadFramesSplitAnywhere(t *testing.T) {
	stream, want := replyBurst()
	check := func(name string, got []wire.ClientResponseV2) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parsed\n%+v\nwant\n%+v", name, got, want)
		}
	}
	check("one read", collect(t, &chunkReader{chunks: [][]byte{bytes.Clone(stream)}}))
	for cut := 1; cut < len(stream); cut++ {
		r := &chunkReader{chunks: [][]byte{bytes.Clone(stream[:cut]), bytes.Clone(stream[cut:])}}
		check("split", collect(t, r))
	}
	var single [][]byte
	for i := range stream {
		single = append(single, []byte{stream[i]})
	}
	check("byte by byte", collect(t, &chunkReader{chunks: single}))
}

// TestReadFramesLargeFrame: a frame larger than the buffer grows it, with
// complete frames ahead of and behind it in the same reads.
func TestReadFramesLargeFrame(t *testing.T) {
	want := []wire.ClientResponseV2{
		{ID: 1, Status: wire.ClientStatusOK, Cycle: 1, Val: []byte("small")},
		{ID: 2, Status: wire.ClientStatusOK, Cycle: 1, Val: bytes.Repeat([]byte{7}, 3*wire.ClientReadBuf)},
		{ID: 3, Status: wire.ClientStatusOK, Cycle: 2, Val: []byte("after")},
	}
	var stream []byte
	for i := range want {
		stream = wire.AppendClientResponseV3(stream, &want[i])
	}
	got := collect(t, &chunkReader{chunks: [][]byte{stream}})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %d responses (IDs/lengths differ), want %d", len(got), len(want))
	}
}

// TestReadFramesErrors: an oversized header ends the stream after the
// frames ahead of it were handled, and a handler's error is returned.
func TestReadFramesErrors(t *testing.T) {
	stream, want := replyBurst()
	bad := append(bytes.Clone(stream), 0xFF, 0xFF, 0xFF, 0xFF)
	handled := 0
	err := wire.ReadClientFrames(&chunkReader{chunks: [][]byte{bad}}, func([]byte) error { handled++; return nil }, nil)
	if !errors.Is(err, wire.ErrClientFrame) || handled != len(want) {
		t.Fatalf("oversized header: err %v after %d frames, want ErrClientFrame after %d", err, handled, len(want))
	}
	stop := errors.New("stop")
	handled = 0
	err = wire.ReadClientFrames(&chunkReader{chunks: [][]byte{stream}}, func([]byte) error {
		if handled++; handled == 2 {
			return stop
		}
		return nil
	}, nil)
	if err != stop || handled != 2 {
		t.Fatalf("handler error: got %v after %d frames", err, handled)
	}
}
