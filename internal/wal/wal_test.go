package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/wire"
)

// makeRoot builds a committed root proposal for one cycle: a single
// remote-style batch of writes, the shape the commit path logs.
func makeRoot(cycle uint64, writes ...wire.Request) *wire.Proposal {
	return &wire.Proposal{
		Cycle: cycle,
		Batches: []*wire.Batch{
			{Origin: 1, Reqs: writes, NumWrite: uint32(len(writes))},
		},
	}
}

func w(client, seq, key uint64, val string) wire.Request {
	return wire.Request{Client: client, Seq: seq, Op: wire.OpWrite, Key: key, Val: []byte(val)}
}

// applyRoot applies one root's writes to a store in commit order — the
// lockstep twin of what the consensus apply path (and recovery's replay)
// does, so a store fed this way is the ground truth for recovery tests.
func applyRoot(st *kvstore.Store, root *wire.Proposal) {
	for _, b := range root.Batches {
		for i := range b.Reqs {
			st.ApplyWrite(&b.Reqs[i])
		}
	}
}

// withSessions returns st's image carrying the given session table.
func withSessions(st *kvstore.Store, sessions []wire.SessionState) *kvstore.Image {
	img := st.Image()
	img.Sessions = sessions
	return &img
}

func readAll(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func testTree(t *testing.T) *lot.Tree {
	t.Helper()
	tree, err := lot.New(lot.Config{SuperLeaves: [][]wire.NodeID{{0, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSegmentRoundTrip appends records across several rotations and
// scans them back in order.
func TestSegmentRoundTrip(t *testing.T) {
	fs := NewMemFS()
	lw := newLogWriter(fs, 256) // tiny limit: force rotations
	const n = 20
	var want [][]byte
	for c := uint64(1); c <= n; c++ {
		root := makeRoot(c, w(1, c, c%5, fmt.Sprintf("value-%d", c)))
		want = append(want, root.AppendTo(nil))
		if err := lw.append(c, root); err != nil {
			t.Fatalf("append %d: %v", c, err)
		}
	}
	if err := lw.sync(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	var segs []string
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs = append(segs, name)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotations, got segments %v", segs)
	}
	next := uint64(1)
	for _, name := range segs {
		err := ScanSegment(readAll(t, fs, name), func(cycle uint64, root *wire.Proposal) error {
			if cycle != next {
				t.Fatalf("scan out of order: got cycle %d, want %d", cycle, next)
			}
			if got := root.AppendTo(nil); string(got) != string(want[next-1]) {
				t.Fatalf("cycle %d payload mismatch", cycle)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
	if next != n+1 {
		t.Fatalf("scanned %d records, want %d", next-1, n)
	}
}

// TestScanTornTail truncates a synced segment at every byte length and
// checks recover-to-prefix: the scan yields exactly the records whose
// bytes fully survive, then either ends clean (cut on a boundary) or
// reports ErrCorrupt — never a panic, never a record from past the cut.
func TestScanTornTail(t *testing.T) {
	fs := NewMemFS()
	lw := newLogWriter(fs, 1<<20)
	boundaries := []int{segHeaderSize} // clean prefix lengths, by record
	name := segName(1)
	for c := uint64(1); c <= 5; c++ {
		if err := lw.append(c, makeRoot(c, w(1, c, c, "torn-tail-test-value"))); err != nil {
			t.Fatal(err)
		}
		if err := lw.sync(); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, len(readAll(t, fs, name)))
	}
	data := readAll(t, fs, name)
	for cut := 0; cut <= len(data); cut++ {
		// How many whole records fit under this cut?
		whole := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				whole = i
			}
		}
		var got int
		err := ScanSegment(data[:cut], func(cycle uint64, _ *wire.Proposal) error {
			got++
			if cycle != uint64(got) {
				t.Fatalf("cut %d: record %d has cycle %d", cut, got, cycle)
			}
			return nil
		})
		if got != whole {
			t.Fatalf("cut %d: scanned %d records, want %d", cut, got, whole)
		}
		onBoundary := cut >= segHeaderSize && boundaries[whole] == cut
		if onBoundary && err != nil {
			t.Fatalf("cut %d is a record boundary, scan errored: %v", cut, err)
		}
		if !onBoundary && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: error %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestScanBitFlip flips each byte of a segment in turn; every scan must
// surface ErrCorrupt (or, for flips confined to already-scanned record
// payloads, at minimum never panic or reorder) and only ever yield a
// prefix of the original cycles.
func TestScanBitFlip(t *testing.T) {
	fs := NewMemFS()
	lw := newLogWriter(fs, 1<<20)
	const n = 4
	for c := uint64(1); c <= n; c++ {
		if err := lw.append(c, makeRoot(c, w(1, c, c, "bit-flip-test"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.sync(); err != nil {
		t.Fatal(err)
	}
	data := readAll(t, fs, segName(1))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		last := uint64(0)
		err := ScanSegment(mut, func(cycle uint64, _ *wire.Proposal) error {
			if cycle != last+1 {
				t.Fatalf("flip at %d: cycle %d after %d", i, cycle, last)
			}
			last = cycle
			return nil
		})
		if err == nil && last != n {
			t.Fatalf("flip at %d: clean scan but only %d records", i, last)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v, want ErrCorrupt", i, err)
		}
	}
}

// TestSnapshotRoundTrip writes a snapshot container and restores it into
// a fresh store, checking the digests and session table survive exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	st := kvstore.NewLogged()
	for i := uint64(0); i < 100; i++ {
		req := w(1, i+1, i*3, fmt.Sprintf("val-%d", i))
		st.ApplyWrite(&req)
	}
	sessions := []wire.SessionState{
		{ID: wire.SessionIDBit | 7, Low: 2, LastActive: 40,
			Applied: []wire.SessionReply{{Seq: 3, Val: []byte("cached")}, {Seq: 4}}},
	}
	fs := NewMemFS()
	if err := writeSnapshot(fs, 40, withSessions(st, sessions), st.StateDigest(), st.LogDigest()); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(readAll(t, fs, snapName(40)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cycle != 40 || snap.StateDigest != st.StateDigest() || snap.LogDigest != st.LogDigest() {
		t.Fatalf("snapshot header mismatch: %+v", snap)
	}
	st2 := kvstore.NewLogged()
	st2.RestoreImage(snap.Image)
	if st2.StateDigest() != st.StateDigest() || st2.LogDigest() != st.LogDigest() || st2.LogLen() != st.LogLen() {
		t.Fatal("restored store diverges from original")
	}
	if len(snap.Sessions) != 1 || snap.Sessions[0].ID != sessions[0].ID ||
		len(snap.Sessions[0].Applied) != 2 ||
		string(snap.Sessions[0].Applied[0].Val) != "cached" ||
		snap.Sessions[0].Applied[1].Val != nil {
		t.Fatalf("sessions did not round-trip: %+v", snap.Sessions)
	}
}

// TestManagerSnapshotAndTruncate drives the Durable interface directly
// and checks the snapshot cadence fires and prefix segments get deleted.
func TestManagerSnapshotAndTruncate(t *testing.T) {
	fs := NewMemFS()
	st := kvstore.NewLogged()
	mgr, err := Open(Options{FS: fs, Store: st, SegmentBytes: 128, SnapshotCycles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 20; c++ {
		root := makeRoot(c, w(1, c, c, "truncate-test-value"))
		applyRoot(st, root)
		if err := mgr.AppendCommit(c, root); err != nil {
			t.Fatal(err)
		}
		if c%2 == 0 {
			if err := mgr.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := mgr.Stats()
	if stats.DurableCycle != 20 || stats.Syncs != 10 || stats.SyncedRecords != 20 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Snapshots == 0 {
		t.Fatal("snapshot cadence never fired")
	}
	names, _ := fs.List()
	var snaps, segs []uint64
	for _, name := range names {
		if c, ok := parseSnapName(name); ok {
			snaps = append(snaps, c)
		}
		if c, ok := parseSegName(name); ok {
			segs = append(segs, c)
		}
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("want 1-2 retained snapshots, have %v", snaps)
	}
	latest := snaps[len(snaps)-1]
	// Every surviving segment must still be reachable from the newest
	// snapshot: at most one segment fully below it (the one straddling),
	// and the tiny SegmentBytes forces rotations, so truncation must have
	// deleted something (20 records never fit one 128-byte segment).
	if len(segs) == 0 {
		t.Fatal("no segments left")
	}
	below := 0
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= latest+1 {
			below++
		}
	}
	if below > 0 {
		t.Fatalf("segments %v: %d whole segments below snapshot %d survived truncation", segs, below, latest)
	}
}

// TestManagerRecover is the end-to-end cold-start path: a manager logs a
// workload (snapshot + WAL tail + an unsynced suffix), the process
// "dies", and a fresh store + node recover to exactly the durable prefix.
func TestManagerRecover(t *testing.T) {
	tree := testTree(t)
	fs := NewMemFS()
	st1 := kvstore.NewLogged()
	mgr1, err := Open(Options{FS: fs, Store: st1, SegmentBytes: 512, SnapshotCycles: 6})
	if err != nil {
		t.Fatal(err)
	}
	const synced = 17
	for c := uint64(1); c <= synced; c++ {
		root := makeRoot(c, w(1, c, c%7, fmt.Sprintf("recover-%d", c)))
		applyRoot(st1, root)
		if err := mgr1.AppendCommit(c, root); err != nil {
			t.Fatal(err)
		}
		if c%3 == 0 || c == synced {
			if err := mgr1.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantState, wantLog, wantLen := st1.StateDigest(), st1.LogDigest(), st1.LogLen()
	// Unsynced suffix: appended but never fsynced — lost in the "crash"
	// (the buffered writer still holds it).
	for c := uint64(synced + 1); c <= synced+3; c++ {
		root := makeRoot(c, w(1, c, 1, "lost"))
		applyRoot(st1, root)
		if err := mgr1.AppendCommit(c, root); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: mgr1 is simply abandoned, never closed.

	st2 := kvstore.NewLogged()
	mgr2, err := Open(Options{FS: fs, Store: st2, SegmentBytes: 512, SnapshotCycles: 6})
	if err != nil {
		t.Fatal(err)
	}
	node := core.NewNode(core.Config{Tree: tree, Self: 0, Durability: mgr2}, st2, core.Callbacks{})
	info, err := mgr2.Recover(node)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.Durable != synced {
		t.Fatalf("recovered to cycle %d, want %d", info.Durable, synced)
	}
	if info.SnapshotCycle == 0 || info.Replayed != int(synced-info.SnapshotCycle) {
		t.Fatalf("recovery shape: %+v (want snapshot baseline + contiguous tail)", info)
	}
	if node.Committed() != synced || node.Ordered() != synced || node.Started() != synced {
		t.Fatalf("node watermarks applied/ordered/started %d/%d/%d, want %d",
			node.Committed(), node.Ordered(), node.Started(), synced)
	}
	if st2.StateDigest() != wantState || st2.LogDigest() != wantLog || st2.LogLen() != wantLen {
		t.Fatalf("replica mismatch after recovery: state %x/%x log %x/%x len %d/%d",
			st2.StateDigest(), wantState, st2.LogDigest(), wantLog, st2.LogLen(), wantLen)
	}

	// The recovered manager must keep the log growing from a fresh
	// segment and survive a SECOND recovery (the stale torn suffix from
	// the first life must stay tolerable).
	for c := uint64(synced + 1); c <= synced+4; c++ {
		root := makeRoot(c, w(1, c, c%7, fmt.Sprintf("recover-%d", c)))
		applyRoot(st2, root)
		if err := mgr2.AppendCommit(c, root); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr2.Sync(); err != nil {
		t.Fatal(err)
	}
	st3 := kvstore.NewLogged()
	mgr3, err := Open(Options{FS: fs, Store: st3, SegmentBytes: 512, SnapshotCycles: 6})
	if err != nil {
		t.Fatal(err)
	}
	node3 := core.NewNode(core.Config{Tree: tree, Self: 0, Durability: mgr3}, st3, core.Callbacks{})
	info3, err := mgr3.Recover(node3)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if info3.Durable != synced+4 {
		t.Fatalf("second recovery reached %d, want %d", info3.Durable, synced+4)
	}
	if st3.StateDigest() != st2.StateDigest() || st3.LogDigest() != st2.LogDigest() {
		t.Fatal("second recovery diverges from the live replica")
	}
}

// TestRecoverEmptyDir pins the first-boot path: nothing on disk, nothing
// recovered, node untouched.
func TestRecoverEmptyDir(t *testing.T) {
	st := kvstore.New()
	mgr, err := Open(Options{FS: NewMemFS(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	node := core.NewNode(core.Config{Tree: testTree(t), Self: 0, Durability: mgr}, st, core.Callbacks{})
	info, err := mgr.Recover(node)
	if err != nil {
		t.Fatal(err)
	}
	if info != (RecoveryInfo{}) || node.Committed() != 0 || node.Ordered() != 0 || node.Started() != 0 {
		t.Fatalf("empty dir recovered something: %+v applied/ordered/started %d/%d/%d",
			info, node.Committed(), node.Ordered(), node.Started())
	}
}

// TestSnapshotKeyMetadata checks the container carries each key's
// last-modified cycle and owner session through a restore.
func TestSnapshotKeyMetadata(t *testing.T) {
	st := kvstore.NewLogged()
	owner := wire.SessionIDBit | 9
	for i := uint64(0); i < 8; i++ {
		req := w(1, i+1, i, fmt.Sprintf("meta-%d", i))
		own := uint64(0)
		if i%2 == 0 {
			own = owner
		}
		st.ApplyWriteAt(&req, 100+i, own)
	}
	fs := NewMemFS()
	if err := writeSnapshot(fs, 8, withSessions(st, nil), st.StateDigest(), st.LogDigest()); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(readAll(t, fs, snapName(8)))
	if err != nil {
		t.Fatal(err)
	}
	st2 := kvstore.NewLogged()
	st2.RestoreImage(snap.Image)
	for i := uint64(0); i < 8; i++ {
		if got := st2.ModCycle(i); got != 100+i {
			t.Fatalf("key %d: mod cycle %d, want %d", i, got, 100+i)
		}
		wantOwner := uint64(0)
		if i%2 == 0 {
			wantOwner = owner
		}
		if got := st2.OwnerOf(i); got != wantOwner {
			t.Fatalf("key %d: owner %#x, want %#x", i, got, wantOwner)
		}
	}
	if got := st2.ExpireOwned(owner); len(got) != 4 {
		t.Fatalf("expire deleted %d keys, want 4", len(got))
	}
}

// recoverSnapshot recovers a fresh logged store from a directory holding
// only the given bytes as the snapshot of cycle.
func recoverSnapshot(t *testing.T, cycle uint64, data []byte) (*kvstore.Store, *core.Node, RecoveryInfo, error) {
	t.Helper()
	disk := NewMemFS()
	f, err := disk.Create(snapName(cycle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st := kvstore.NewLogged()
	mgr, err := Open(Options{FS: disk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	node := core.NewNode(core.Config{Tree: testTree(t), Self: 0}, st, core.Callbacks{})
	info, err := mgr.Recover(node)
	return st, node, info, err
}

// requireVersionRefused checks a recovery refused an old snapshot layout
// by name — the version and the remedy — and installed nothing.
func requireVersionRefused(t *testing.T, version int, st *kvstore.Store, node *core.Node, info RecoveryInfo, err error) {
	t.Helper()
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("recovery from a version-%d snapshot returned %v, want ErrSnapshotVersion", version, err)
	}
	for _, want := range []string{fmt.Sprintf("version %d", version), "move the data directory away", "-join"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
		}
	}
	if info != (RecoveryInfo{}) || node.Committed() != 0 || st.Len() != 0 || st.LogLen() != 0 || node.Sessions().Occupancy() != 0 {
		t.Fatalf("refused recovery installed state: %+v committed=%d keys=%d", info, node.Committed(), st.Len())
	}
}

// TestSnapshotV1Compat hand-builds a version-1 container (one shard
// section without per-key metadata) and checks recovery refuses it with
// ErrSnapshotVersion instead of skipping it or reading it.
func TestSnapshotV1Compat(t *testing.T) {
	var shard []byte
	shard = binary.LittleEndian.AppendUint64(shard, 1) // logLen
	shard = binary.LittleEndian.AppendUint64(shard, 0xfeed)
	shard = binary.LittleEndian.AppendUint32(shard, 1) // one key
	shard = binary.LittleEndian.AppendUint64(shard, 42)
	shard = binary.LittleEndian.AppendUint32(shard, uint32(len("legacy")))
	shard = append(shard, "legacy"...)
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, 1) // version 1
	buf = binary.LittleEndian.AppendUint64(buf, 5) // cycle
	buf = binary.LittleEndian.AppendUint32(buf, 1) // one shard
	for _, payload := range [][]byte{shard, binary.LittleEndian.AppendUint32(nil, 0), make([]byte, 16)} {
		buf = append(append(buf, sectionHeader(payload)...), payload...)
	}
	st, node, info, err := recoverSnapshot(t, 5, buf)
	requireVersionRefused(t, 1, st, node, info, err)
}

// TestRecoveredSessionsAnswerLikeAReplica pins the session table a WAL
// snapshot holds: it is the store's own, transaction verdicts included, so
// a node recovered from a snapshot taken at a session transaction's cycle
// answers a retry of that transaction as a replica that replayed the same
// roots does.
func TestRecoveredSessionsAnswerLikeAReplica(t *testing.T) {
	tree := testTree(t)
	const sess = wire.SessionIDBit | 3
	txn := wire.Request{Client: sess, Seq: 1, Op: wire.OpTxn, Val: wire.AppendTxn(nil, &wire.Txn{
		Ops: []wire.TxnOp{{Op: wire.OpWrite, Key: 5, Val: []byte("t")}},
	})}
	roots := []*wire.Proposal{
		{Cycle: 1, Sessions: []wire.SessionUpdate{{ID: sess}}},
		makeRoot(2, txn),
	}

	// The writer applies each root, then logs it and syncs — the apply
	// stage's order; its snapshot cadence takes the image at cycle 2.
	fs := NewMemFS()
	st := kvstore.New()
	mgr, err := Open(Options{FS: fs, Store: st, SnapshotCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	writer := core.NewNode(core.Config{Tree: tree, Self: 0}, st, core.Callbacks{})
	replica := core.NewNode(core.Config{Tree: tree, Self: 0}, kvstore.New(), core.Callbacks{})
	for i, root := range roots {
		c := uint64(i + 1)
		for _, n := range []*core.Node{writer, replica} {
			if err := n.ReplayCommit(c, root); err != nil {
				t.Fatal(err)
			}
		}
		if err := mgr.AppendCommit(c, root); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	st2 := kvstore.New()
	mgr2, err := Open(Options{FS: fs, Store: st2, SnapshotCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	recovered := core.NewNode(core.Config{Tree: tree, Self: 0, Durability: mgr2}, st2, core.Callbacks{})
	info, err := mgr2.Recover(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotCycle != 2 || info.Replayed != 0 {
		t.Fatalf("recovery shape %+v, want the cycle-2 snapshot and no replay", info)
	}
	want := replica.Sessions().CachedTxn(sess, 1)
	if want == nil {
		t.Fatal("the replica holds no verdict for the transaction")
	}
	if got := recovered.Sessions().CachedTxn(sess, 1); !bytes.Equal(got, want) {
		t.Fatalf("recovered node answers the retried transaction with %x, the replica with %x", got, want)
	}
}
