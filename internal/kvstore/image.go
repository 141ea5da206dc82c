package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"canopus/internal/wire"
)

// The store's one image format. A WAL snapshot holds it section by
// section (internal/wal frames and checksums each payload), and a
// JoinReply carries the same payloads to a joiner, so a rejoined replica
// and a recovered one install byte-identical state:
//
//	contents: [u64 logLen][u64 logDigest][u32 numKeys]
//	          numKeys × [u64 key][u32 valLen][val][u64 modCycle][u64 owner]
//	          (keys sorted)
//	sessions: [u32 count] count × [u64 id][u64 low][u64 lastActive][u32 n]
//	          n × [u64 seq][u32 valLen or nilLen][val]
//
// Decoding arbitrary input yields an error, never a panic or an
// allocation larger than the input can back.

// Image is the store's whole replicated state: its contents and the
// session table. A WAL snapshot and a JoinReply carry it.
type Image struct {
	Contents Contents
	Sessions []wire.SessionState
}

// Contents is the store's key-value image: the order-sensitive commit
// log plus every key in sorted order. AppendContents encodes it for a WAL
// snapshot's contents section and for a JoinReply.
type Contents struct {
	LogLen    uint64
	LogDigest uint64
	Keys      []uint64
	Vals      [][]byte
	// Cycles and Owners align with Keys: each key's last-modified commit
	// cycle and owning session.
	Cycles []uint64
	Owners []uint64
}

// Image renders the store's image, values copied: it stays valid while
// later writes apply.
func (s *Store) Image() Image {
	return Image{Contents: s.contents(), Sessions: s.sessions.Snapshot()}
}

// RestoreImage replaces the store's contents, metadata, log chain and
// session table with an image.
func (s *Store) RestoreImage(img Image) {
	s.restoreContents(&img.Contents)
	s.sessions.Restore(img.Sessions)
}

func (s *Store) contents() Contents {
	keys, valBytes := s.sortedKeys()
	c := Contents{LogLen: s.logLen, LogDigest: s.logDigest, Keys: keys}
	c.Vals = make([][]byte, len(c.Keys))
	c.Cycles = make([]uint64, len(c.Keys))
	c.Owners = make([]uint64, len(c.Keys))
	arena := make([]byte, 0, valBytes)
	for j, k := range c.Keys {
		v := s.data[k]
		arena = append(arena, v...)
		c.Vals[j] = arena[len(arena)-len(v):]
		m := s.meta[k]
		c.Cycles[j], c.Owners[j] = m.cycle, m.owner
	}
	return c
}

func (s *Store) restoreContents(c *Contents) {
	s.data = make(map[uint64][]byte, len(c.Keys))
	s.meta, s.owned = nil, nil
	for j, k := range c.Keys {
		v := make([]byte, len(c.Vals[j]))
		copy(v, c.Vals[j])
		s.data[k] = v
		m := keyMeta{cycle: c.Cycles[j], owner: c.Owners[j]}
		if m == (keyMeta{}) {
			continue
		}
		if s.meta == nil {
			s.meta = make(map[uint64]keyMeta, len(c.Keys))
		}
		s.meta[k] = m
		if m.owner != 0 {
			s.attachOwner(m.owner, k)
		}
	}
	s.logLen, s.logDigest = c.LogLen, c.LogDigest
}

// nilLen marks a nil cached reply, which is distinct from an empty one.
const nilLen = ^uint32(0)

var errTruncated = errors.New("truncated")

// AppendContents appends c's image to dst, growing dst once: the image
// of a whole store runs to megabytes.
func AppendContents(dst []byte, c *Contents) []byte {
	n := 20 + 28*len(c.Keys)
	for _, v := range c.Vals {
		n += len(v)
	}
	dst = slices.Grow(dst, n)
	dst = binary.LittleEndian.AppendUint64(dst, c.LogLen)
	dst = binary.LittleEndian.AppendUint64(dst, c.LogDigest)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Keys)))
	for j, k := range c.Keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Vals[j])))
		dst = append(dst, c.Vals[j]...)
		dst = binary.LittleEndian.AppendUint64(dst, c.Cycles[j])
		dst = binary.LittleEndian.AppendUint64(dst, c.Owners[j])
	}
	return dst
}

// DecodeContents parses one AppendContents image. Values alias b.
func DecodeContents(b []byte) (Contents, error) {
	r := imageReader{b: b}
	var c Contents
	c.LogLen = r.u64()
	c.LogDigest = r.u64()
	n := r.count(28) // key + len + modCycle + owner
	c.Keys = make([]uint64, n)
	c.Vals = make([][]byte, n)
	c.Cycles = make([]uint64, n)
	c.Owners = make([]uint64, n)
	for j := 0; j < n && r.err == nil; j++ {
		c.Keys[j] = r.u64()
		c.Vals[j] = r.take(int(r.u32()))
		c.Cycles[j] = r.u64()
		c.Owners[j] = r.u64()
	}
	return c, r.done()
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
