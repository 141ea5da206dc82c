package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"canopus/internal/wire"
)

// The store's one image format. A WAL snapshot holds it section by
// section (internal/wal frames and checksums each payload), and a
// JoinReply carries the same payloads to a joiner, so a rejoined replica
// and a recovered one install byte-identical state:
//
//	shard:    [u64 logLen][u64 logDigest][u32 numKeys]
//	          numKeys × [u64 key][u32 valLen][val][u64 modCycle][u64 owner]
//	          (keys sorted; the version-1 layout omits modCycle/owner)
//	sessions: [u32 count] count × [u64 id][u64 low][u64 lastActive][u32 n]
//	          n × [u64 seq][u32 valLen or nilLen][val]
//
// Decoding arbitrary input yields an error, never a panic or an
// allocation larger than the input can back.

// nilLen marks a nil cached reply, which is distinct from an empty one.
const nilLen = ^uint32(0)

var errTruncated = errors.New("truncated")

// AppendShard appends st's image to dst. A key without metadata (Cycles
// or Owners shorter than Keys) is written with zeros.
func AppendShard(dst []byte, st *ShardState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, st.LogLen)
	dst = binary.LittleEndian.AppendUint64(dst, st.LogDigest)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Keys)))
	for j, k := range st.Keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Vals[j])))
		dst = append(dst, st.Vals[j]...)
		var cycle, owner uint64
		if j < len(st.Cycles) {
			cycle = st.Cycles[j]
		}
		if j < len(st.Owners) {
			owner = st.Owners[j]
		}
		dst = binary.LittleEndian.AppendUint64(dst, cycle)
		dst = binary.LittleEndian.AppendUint64(dst, owner)
	}
	return dst
}

// DecodeShard parses one AppendShard image; without meta it reads the
// version-1 layout, whose keys decode with zero metadata. Values alias b.
func DecodeShard(b []byte, meta bool) (ShardState, error) {
	r := imageReader{b: b}
	var st ShardState
	st.LogLen = r.u64()
	st.LogDigest = r.u64()
	perKey := 12
	if meta {
		perKey = 28 // key + len + modCycle + owner
	}
	n := r.count(perKey)
	st.Keys = make([]uint64, n)
	st.Vals = make([][]byte, n)
	// Allocated for version 1 too (left zero), so a decoded image
	// re-encodes to an equal image whatever its source version.
	st.Cycles = make([]uint64, n)
	st.Owners = make([]uint64, n)
	for j := 0; j < n && r.err == nil; j++ {
		st.Keys[j] = r.u64()
		st.Vals[j] = r.take(int(r.u32()))
		if meta {
			st.Cycles[j] = r.u64()
			st.Owners[j] = r.u64()
		}
	}
	return st, r.done()
}

// AppendSessions appends the session table's image (SessionTable.Snapshot)
// to dst.
func AppendSessions(dst []byte, ss []wire.SessionState) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss)))
	for i := range ss {
		s := &ss[i]
		dst = binary.LittleEndian.AppendUint64(dst, s.ID)
		dst = binary.LittleEndian.AppendUint64(dst, s.Low)
		dst = binary.LittleEndian.AppendUint64(dst, s.LastActive)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Applied)))
		for j := range s.Applied {
			rep := &s.Applied[j]
			dst = binary.LittleEndian.AppendUint64(dst, rep.Seq)
			if rep.Val == nil {
				dst = binary.LittleEndian.AppendUint32(dst, nilLen)
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rep.Val)))
			dst = append(dst, rep.Val...)
		}
	}
	return dst
}

// DecodeSessions parses one AppendSessions image. Values alias b.
func DecodeSessions(b []byte) ([]wire.SessionState, error) {
	r := imageReader{b: b}
	ss := make([]wire.SessionState, r.count(28))
	for i := 0; i < len(ss) && r.err == nil; i++ {
		s := &ss[i]
		s.ID = r.u64()
		s.Low = r.u64()
		s.LastActive = r.u64()
		s.Applied = make([]wire.SessionReply, r.count(12))
		for j := 0; j < len(s.Applied) && r.err == nil; j++ {
			rep := &s.Applied[j]
			rep.Seq = r.u64()
			if n := r.u32(); n != nilLen {
				rep.Val = r.take(int(n))
			}
		}
	}
	return ss, r.done()
}

// imageReader is an error-latching cursor: after the first failure every
// read returns the zero value.
type imageReader struct {
	b   []byte
	err error
}

func (r *imageReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = errTruncated
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *imageReader) u32() uint32 {
	if v := r.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (r *imageReader) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// count reads an element count, refusing one the remaining bytes cannot
// hold at minSize bytes an element.
func (r *imageReader) count(minSize int) int {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(len(r.b)/minSize)+1 {
		r.err = fmt.Errorf("implausible count %d", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// done reports the first failure, or bytes left over after the image.
func (r *imageReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}
