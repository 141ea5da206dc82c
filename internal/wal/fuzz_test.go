package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// fuzzSegment builds a valid segment holding cycles 1..n, as seed input.
func fuzzSegment(tb testing.TB, n int) []byte {
	tb.Helper()
	fs := NewMemFS()
	lw := newLogWriter(fs, 1<<20)
	for c := uint64(1); c <= uint64(n); c++ {
		root := &wire.Proposal{
			Cycle: c,
			Batches: []*wire.Batch{{
				Origin:   1,
				Reqs:     []wire.Request{{Client: 7, Seq: c, Op: wire.OpWrite, Key: c * 3, Val: []byte("fuzz-seed")}},
				NumWrite: 1,
			}},
			Sessions: []wire.SessionUpdate{{ID: wire.SessionIDBit | c}},
		}
		if err := lw.append(c, root); err != nil {
			tb.Fatal(err)
		}
	}
	if err := lw.sync(); err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Open(segName(1))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSnapshot builds a valid snapshot container as seed input.
func fuzzSnapshot(tb testing.TB) []byte {
	tb.Helper()
	st := kvstore.NewLogged()
	for i := uint64(0); i < 16; i++ {
		req := wire.Request{Client: 1, Seq: i + 1, Op: wire.OpWrite, Key: i, Val: []byte("snap-seed")}
		st.ApplyWrite(&req)
	}
	sessions := []wire.SessionState{
		{ID: wire.SessionIDBit | 5, Low: 1, LastActive: 9,
			Applied: []wire.SessionReply{{Seq: 2, Val: []byte("ok")}, {Seq: 3}}},
	}
	fs := NewMemFS()
	if err := writeSnapshot(fs, 16, withSessions(st, sessions), st.StateDigest(), st.LogDigest()); err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Open(snapName(16))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWALReplay feeds arbitrary bytes to the segment scanner. The
// contract under any input — truncated, bit-flipped, torn, or garbage —
// is: never panic, surface only ErrCorrupt for undecodable suffixes, and
// scan deterministically (two scans of the same bytes agree exactly).
func FuzzWALReplay(f *testing.F) {
	seg := fuzzSegment(f, 5)
	f.Add(seg)
	f.Add(seg[:len(seg)-1])      // torn crc
	f.Add(seg[:len(seg)-12])     // torn payload
	f.Add(seg[:segHeaderSize+7]) // torn record header
	f.Add(seg[:segHeaderSize])   // empty but valid
	f.Add(seg[:3])               // torn segment header
	f.Add([]byte{})              // empty file
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cycles []uint64
		err := ScanSegment(data, func(cycle uint64, root *wire.Proposal) error {
			if root == nil {
				t.Fatal("scanner delivered a nil root")
			}
			cycles = append(cycles, cycle)
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan error does not wrap ErrCorrupt: %v", err)
		}
		var again []uint64
		err2 := ScanSegment(data, func(cycle uint64, _ *wire.Proposal) error {
			again = append(again, cycle)
			return nil
		})
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(cycles, again) {
			t.Fatalf("scan not deterministic: %v/%v, %v vs %v", err, err2, cycles, again)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder:
// never panic, refuse a version-1 or version-2 header with
// ErrSnapshotVersion and anything else undecodable with ErrCorrupt, and
// any accepted image
// must re-encode to a container that decodes back to the same image
// (round-trip fixed point — what recovery relies on when it re-snapshots
// restored state).
func FuzzSnapshotDecode(f *testing.F) {
	snap := fuzzSnapshot(f)
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:snapHeaderSize])
	f.Add([]byte{})
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)-5] ^= 0x80
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0x00}, 128))
	v2 := append([]byte(nil), snap...)
	v2[4] = 2 // the version field
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("decode error wraps neither ErrCorrupt nor ErrSnapshotVersion: %v", err)
			}
			return
		}
		fs := NewMemFS()
		if err := writeSnapshot(fs, img.Cycle, &img.Image, img.StateDigest, img.LogDigest); err != nil {
			t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
		}
		fl, err := fs.Open(snapName(img.Cycle))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(fl); err != nil {
			t.Fatal(err)
		}
		fl.Close()
		img2, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(img, img2) {
			t.Fatalf("snapshot round trip is not a fixed point:\n%+v\nvs\n%+v", img, img2)
		}
	})
}
