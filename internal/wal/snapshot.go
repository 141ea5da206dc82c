package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"canopus/internal/kvstore"
	"canopus/internal/wire"
)

// Snapshot container format (versioned, length-prefixed, checksummed):
//
//	[u32 magic "CSNP"][u32 version][u64 cycle][u32 numShards]
//	numShards × shard section
//	session section
//	digest trailer section
//
// Every section is [u32 payloadLen][u32 crc32c][payload], independently
// checksummed so the writer appends the container incrementally — one
// shard at a time, straight off kvstore.SnapshotShards — without
// buffering the whole image. The shard and session payloads are the
// store's image (kvstore.AppendShard, kvstore.AppendSessions: version 1
// shards omit the key metadata), the same bytes a JoinReply carries; the
// trailer is [u64 stateDigest][u64 logDigest].
//
// The trailer digests are recomputed from the restored store at load
// time; a mismatch fails recovery rather than resurrecting a replica
// that silently disagrees with its peers.

const (
	snapMagic      uint32 = 0x504E5343 // "CSNP"
	snapVersion    uint32 = 2          // writes v2; v1 images (no key metadata) still load
	snapHeaderSize        = 16
	snapPrefix            = "snap-"
	snapSuffix            = ".snap"
	snapTmpSuffix         = ".tmp"
)

func snapName(cycle uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, cycle, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hex := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	cycle, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return cycle, true
}

// Snapshot is one decoded container.
type Snapshot struct {
	Cycle       uint64
	Shards      []kvstore.ShardState
	Sessions    []wire.SessionState
	StateDigest uint64
	LogDigest   uint64
}

// appendSection frames one section payload.
func appendSection(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// writeSnapshot publishes the image as snap-<cycle>.snap: sections are
// appended incrementally to a temp file, fsynced, then renamed into
// place so a crash mid-write never shadows the previous snapshot.
func writeSnapshot(fs FS, cycle uint64, shards []kvstore.ShardState, sessions []wire.SessionState, stateDigest, logDigest uint64) error {
	tmp := snapName(cycle) + snapTmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	var hdr [snapHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], cycle)
	// numShards rides the first 4 bytes after the fixed header.
	buf := binary.LittleEndian.AppendUint32(hdr[:], uint32(len(shards)))
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	var section, payload []byte
	for i := range shards {
		payload = kvstore.AppendShard(payload[:0], &shards[i])
		section = appendSection(section[:0], payload)
		if _, err := f.Write(section); err != nil {
			f.Close()
			return err
		}
	}
	payload = kvstore.AppendSessions(payload[:0], sessions)
	section = appendSection(section[:0], payload)
	if _, err := f.Write(section); err != nil {
		f.Close()
		return err
	}
	payload = binary.LittleEndian.AppendUint64(payload[:0], stateDigest)
	payload = binary.LittleEndian.AppendUint64(payload, logDigest)
	section = appendSection(section[:0], payload)
	if _, err := f.Write(section); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, snapName(cycle))
}

// snapReader cursors over container bytes with bounds-checked takes.
type snapReader struct{ b []byte }

func (r *snapReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *snapReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

// section verifies and returns the next section's payload.
func (r *snapReader) section() (*snapReader, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	crc, err := r.u32()
	if err != nil {
		return nil, err
	}
	payload, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("%w: section checksum mismatch", ErrCorrupt)
	}
	return &snapReader{b: payload}, nil
}

// DecodeSnapshot parses one container. Arbitrary input yields an error
// wrapping ErrCorrupt, never a panic or an unbounded allocation — the
// FuzzSnapshotDecode contract.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := &snapReader{b: data}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic %#x", ErrCorrupt, magic)
	}
	version, err := r.u32()
	if err != nil {
		return nil, err
	}
	if version != 1 && version != snapVersion {
		return nil, fmt.Errorf("%w: unknown snapshot version %d", ErrCorrupt, version)
	}
	snap := &Snapshot{}
	if snap.Cycle, err = r.u64(); err != nil {
		return nil, err
	}
	numShards, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Every shard section needs at least its 8-byte frame: bound the
	// shard-slice allocation by the bytes actually present.
	if uint64(numShards) > uint64(len(r.b)/8)+1 {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrCorrupt, numShards)
	}
	snap.Shards = make([]kvstore.ShardState, numShards)
	for i := range snap.Shards {
		s, err := r.section()
		if err != nil {
			return nil, err
		}
		if snap.Shards[i], err = kvstore.DecodeShard(s.b, version >= 2); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrCorrupt, i, err)
		}
	}
	s, err := r.section()
	if err != nil {
		return nil, err
	}
	if snap.Sessions, err = kvstore.DecodeSessions(s.b); err != nil {
		return nil, fmt.Errorf("%w: sessions: %v", ErrCorrupt, err)
	}
	s, err = r.section()
	if err != nil {
		return nil, err
	}
	if snap.StateDigest, err = s.u64(); err != nil {
		return nil, err
	}
	if snap.LogDigest, err = s.u64(); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	return snap, nil
}
