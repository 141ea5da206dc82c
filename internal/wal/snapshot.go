package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"canopus/internal/kvstore"
)

// Snapshot container format (versioned, length-prefixed, checksummed):
//
//	[u32 magic "CSNP"][u32 version][u64 cycle]
//	contents section
//	session section
//	digest trailer section
//
// Every section is [u32 payloadLen][u32 crc32c][payload], independently
// checksummed. The contents and session payloads are the store's image
// (kvstore.AppendContents, kvstore.AppendSessions), the same bytes a
// JoinReply carries; the trailer is [u64 stateDigest][u64 logDigest].
//
// The trailer digests are recomputed from the restored store at load
// time; a mismatch fails recovery rather than resurrecting a replica
// that silently disagrees with its peers.
//
// Versions 1 and 2 split the contents into per-shard sections; they are
// refused with ErrSnapshotVersion, not read.

const (
	snapMagic      uint32 = 0x504E5343 // "CSNP"
	snapVersion    uint32 = 3
	snapHeaderSize        = 16
	snapPrefix            = "snap-"
	snapSuffix            = ".snap"
	snapTmpSuffix         = ".tmp"
)

// ErrSnapshotVersion reports a snapshot written by an older release in a
// layout this one no longer reads. Recovery stops on it instead of
// falling back to an older snapshot: every snapshot in the directory has
// that layout.
var ErrSnapshotVersion = errors.New("wal: snapshot version no longer read")

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
	Cycle uint64
	kvstore.Image
	StateDigest uint64
	LogDigest   uint64
}

// sectionHeader is the frame written ahead of a section's payload.
func sectionHeader(payload []byte) []byte {
	h := binary.LittleEndian.AppendUint32(make([]byte, 0, 8), uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(h, crc32.Checksum(payload, crcTable))
}

// writeSnapshot publishes the image as snap-<cycle>.snap: the sections
// are written to a temp file, fsynced, then renamed into place so a crash
// mid-write never shadows the previous snapshot.
func writeSnapshot(fs FS, cycle uint64, img *kvstore.Image, stateDigest, logDigest uint64) error {
	tmp := snapName(cycle) + snapTmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, snapHeaderSize), snapMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, cycle)
	digests := binary.LittleEndian.AppendUint64(nil, stateDigest)
	digests = binary.LittleEndian.AppendUint64(digests, logDigest)
	// Each payload is written behind its frame, not copied into one
	// buffer: the contents payload is the whole encoded store.
	writes := [][]byte{hdr}
	for _, payload := range [][]byte{
		kvstore.AppendContents(nil, &img.Contents),
		kvstore.AppendSessions(nil, img.Sessions),
		digests,
	} {
		writes = append(writes, sectionHeader(payload), payload)
	}
	for _, b := range writes {
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
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

// DecodeSnapshot parses one container. A version-1 or version-2 container
// yields an error wrapping ErrSnapshotVersion; any other input it cannot
// read, one wrapping ErrCorrupt — never a panic or an unbounded
// allocation (the FuzzSnapshotDecode contract).
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
	if version == 1 || version == 2 {
		return nil, fmt.Errorf("%w: version %d (per-shard sections); move the data directory away and restart the node with -join",
			ErrSnapshotVersion, version)
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: unknown snapshot version %d", ErrCorrupt, version)
	}
	snap := &Snapshot{}
	if snap.Cycle, err = r.u64(); err != nil {
		return nil, err
	}
	s, err := r.section()
	if err != nil {
		return nil, err
	}
	if snap.Contents, err = kvstore.DecodeContents(s.b); err != nil {
		return nil, fmt.Errorf("%w: contents: %v", ErrCorrupt, err)
	}
	if s, err = r.section(); err != nil {
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
