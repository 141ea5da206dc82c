package wal

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// goldenCycle and goldenImage fix the snapshot testdata/golden.snap holds:
// four shards of keys with and without metadata, an empty value, a deleted
// key, and sessions whose cached replies are nil, empty and non-empty.
const goldenCycle = 77

func goldenImage() (*kvstore.Store, []wire.SessionState) {
	st := kvstore.NewShardedLogged(4)
	owner := wire.SessionIDBit | 5
	for i := uint64(0); i < 24; i++ {
		req := w(i%3+1, i+1, i*7, fmt.Sprintf("golden-%d", i))
		if i == 9 {
			req.Val = []byte{}
		}
		var own uint64
		if i%4 == 0 {
			own = owner
		}
		st.ApplyWriteAt(&req, 10+i, own)
	}
	del := wire.Request{Client: 1, Seq: 30, Op: wire.OpDelete, Key: 14}
	st.ApplyWriteAt(&del, 40, 0)
	sessions := []wire.SessionState{
		{ID: owner, Low: 3, LastActive: 41, Applied: []wire.SessionReply{
			{Seq: 3}, {Seq: 4, Val: []byte{}}, {Seq: 6, Val: []byte("cached")},
		}},
		{ID: wire.SessionIDBit | 6, Low: 1, LastActive: 12},
	}
	return st, sessions
}

// TestSnapshotBytesUnchanged pins the snapshot file format: the golden
// image encodes to the bytes testdata/golden.snap holds, which the
// writer produced before the shard and session encoders moved to
// kvstore, and that file recovers to the image's digests, log chain,
// key metadata and session table.
func TestSnapshotBytesUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.snap")
	if err != nil {
		t.Fatal(err)
	}
	st, sessions := goldenImage()
	fs := NewMemFS()
	if err := writeSnapshot(fs, goldenCycle, st.SnapshotShards(), sessions, st.StateDigest(), st.LogDigest()); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, snapName(goldenCycle)); !bytes.Equal(got, want) {
		t.Fatalf("snapshot encodes to %d bytes that differ from the %d golden ones", len(got), len(want))
	}

	disk := NewMemFS()
	f, err := disk.Create(snapName(goldenCycle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2 := kvstore.NewShardedLogged(4)
	mgr, err := Open(Options{FS: disk, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	node := core.NewNode(core.Config{Tree: testTree(t), Self: 0}, st2, core.Callbacks{})
	info, err := mgr.Recover(node)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotCycle != goldenCycle || node.Committed() != goldenCycle {
		t.Fatalf("recovered to snapshot cycle %d, committed %d; want %d", info.SnapshotCycle, node.Committed(), goldenCycle)
	}
	if st2.StateDigest() != st.StateDigest() || st2.LogDigest() != st.LogDigest() || st2.LogLen() != st.LogLen() {
		t.Fatalf("recovered digests %x/%x/%d, want %x/%x/%d",
			st2.StateDigest(), st2.LogDigest(), st2.LogLen(), st.StateDigest(), st.LogDigest(), st.LogLen())
	}
	for k := uint64(0); k < 24*7; k += 7 {
		if st2.ModCycle(k) != st.ModCycle(k) || st2.OwnerOf(k) != st.OwnerOf(k) {
			t.Fatalf("key %d: metadata %d/%#x, want %d/%#x", k, st2.ModCycle(k), st2.OwnerOf(k), st.ModCycle(k), st.OwnerOf(k))
		}
	}
	if got := node.Sessions().Snapshot(); !reflect.DeepEqual(got, sessions) {
		t.Fatalf("recovered sessions %+v, want %+v", got, sessions)
	}
}
