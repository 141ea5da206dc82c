// Package kvstore is the replicated key-value state machine driven by
// the consensus protocols in this repository: a flat map of 64-bit keys
// to small values (the paper's workload uses 16-byte key-value pairs),
// plus an optional commit log that tests use to prove all replicas
// applied the same sequence.
//
// The store is sharded: keys partition across N shards by key hash, and
// every operation touches exactly one shard. Operations on different
// shards are safe to run concurrently, while operations on one shard must
// be serialized by the caller (internal/core applies everything on one
// goroutine, its apply stage; the partition is what the snapshot format
// and the per-shard log chains are built on). With equal shard counts, replicas that apply the same
// write sequence hold equal LogDigest/StateDigest values: the per-shard
// order-sensitive digests are combined deterministically, and a shard's
// digest depends only on the writes routed to it, which the committed
// total order fixes identically on every replica.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"canopus/internal/wire"
)

// shard is one partition of the store: a private map plus its slice of
// the order-sensitive commit log.
type shard struct {
	data map[uint64][]byte

	// Event-plane metadata (see meta.go): per-key last-modified cycle
	// and owning session, plus the owner -> keys index driving
	// ephemeral-key expiry. Both are nil until first used.
	meta  map[uint64]keyMeta
	owned map[uint64]map[uint64]struct{}

	logLen    uint64
	logDigest uint64
}

// Store implements core.StateMachine. Each protocol node owns one Store;
// concurrent use is only permitted across distinct shards (see the
// package comment).
type Store struct {
	shards []shard
	mask   uint64 // len(shards) - 1; shard count is a power of two

	// sessions is the replicated client-session table, part of the
	// store's image beside the shards.
	sessions *SessionTable

	// recordLog keeps an order-sensitive digest of applied writes so
	// tests can assert replica equality cheaply.
	recordLog bool
}

// New creates an empty single-shard store.
func New() *Store { return NewSharded(1) }

// NewSharded creates an empty store with n shards (rounded up to a power
// of two, minimum 1). Replica-equality digests are only comparable
// between stores with equal shard counts.
func NewSharded(n int) *Store {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1), sessions: NewSessionTable()}
	for i := range s.shards {
		s.shards[i].data = make(map[uint64][]byte)
	}
	return s
}

// NewLogged creates a single-shard store that maintains an apply-order
// digest.
func NewLogged() *Store { return NewShardedLogged(1) }

// NewShardedLogged creates an n-shard store that maintains per-shard
// apply-order digests.
func NewShardedLogged(n int) *Store {
	s := NewSharded(n)
	s.recordLog = true
	return s
}

// Sessions returns the store's replicated client-session table.
func (s *Store) Sessions() *SessionTable { return s.sessions }

// NumShards returns the shard count (a power of two).
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index owning key. The hash is a fixed
// multiplicative mix so every replica routes identically.
func (s *Store) ShardOf(key uint64) int {
	if s.mask == 0 {
		return 0
	}
	h := key * 0x9E3779B97F4A7C15
	return int((h >> 32) & s.mask)
}

// ApplyWrite applies one write without key metadata (the Zab and EPaxos
// baselines apply through it; core uses ApplyWriteAt). OpDelete requests
// remove the key; anything else stores the value. Concurrent calls are
// permitted only for keys in distinct shards.
func (s *Store) ApplyWrite(req *wire.Request) { s.apply(req) }

// apply is ApplyWrite, returning the store's own copy of the written
// value (nil for a delete). The copy is never modified again — a later
// write to the key stores a fresh one — so Read, the event plane and
// anything else may share it for as long as they like.
func (s *Store) apply(req *wire.Request) []byte {
	sh := &s.shards[s.ShardOf(req.Key)]
	var v []byte
	if req.Op == wire.OpDelete {
		delete(sh.data, req.Key)
	} else {
		v = make([]byte, len(req.Val))
		copy(v, req.Val)
		sh.data[req.Key] = v
	}
	if s.recordLog {
		sh.logLen++
		h := fnv.New64a()
		var buf [8*4 + 1]byte
		binary.LittleEndian.PutUint64(buf[0:], sh.logDigest)
		binary.LittleEndian.PutUint64(buf[8:], req.Client)
		binary.LittleEndian.PutUint64(buf[16:], req.Seq)
		binary.LittleEndian.PutUint64(buf[24:], req.Key)
		buf[32] = uint8(req.Op)
		h.Write(buf[:])
		h.Write(req.Val)
		sh.logDigest = h.Sum64()
	}
	return v
}

// Read implements core.StateMachine. Concurrent calls are permitted only
// against shards no writer is touching.
func (s *Store) Read(key uint64) []byte {
	return s.shards[s.ShardOf(key)].data[key]
}

// Len returns the number of keys present.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].data)
	}
	return n
}

// LogLen returns the number of writes applied (when logging).
func (s *Store) LogLen() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].logLen
	}
	return n
}

// LogDigest returns the order-sensitive digest of applied writes. Two
// replicas with equal shard counts and equal digests applied write
// sequences that agree within every shard — and since a key's shard is a
// pure function of the key, replicas applying the same total order
// always agree. Single-shard stores expose the raw shard digest
// (backward compatible); sharded stores fold the per-shard digests in
// shard order.
func (s *Store) LogDigest() uint64 {
	if len(s.shards) == 1 {
		return s.shards[0].logDigest
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := range s.shards {
		binary.LittleEndian.PutUint64(buf[0:], s.shards[i].logLen)
		binary.LittleEndian.PutUint64(buf[8:], s.shards[i].logDigest)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sortedKeys collects every key across all shards, sorted.
func (s *Store) sortedKeys() []uint64 {
	n := s.Len()
	keys := make([]uint64, 0, n)
	for i := range s.shards {
		for k := range s.shards[i].data {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ShardState is one shard's image: its slice of the order-sensitive
// commit log plus its contents in sorted-key order. AppendShard encodes
// it for a WAL snapshot's shard section and for a JoinReply.
type ShardState struct {
	LogLen    uint64
	LogDigest uint64
	Keys      []uint64
	Vals      [][]byte
	// Cycles and Owners align with Keys: each key's last-modified commit
	// cycle and owning session (both zero for pre-event-plane images).
	Cycles []uint64
	Owners []uint64
}

// SnapshotShards renders every shard's image, values copied: the result
// stays valid while later writes apply.
func (s *Store) SnapshotShards() []ShardState {
	out := make([]ShardState, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		st := &out[i]
		st.LogLen, st.LogDigest = sh.logLen, sh.logDigest
		st.Keys = make([]uint64, 0, len(sh.data))
		for k := range sh.data {
			st.Keys = append(st.Keys, k)
		}
		sort.Slice(st.Keys, func(a, b int) bool { return st.Keys[a] < st.Keys[b] })
		st.Vals = make([][]byte, len(st.Keys))
		st.Cycles = make([]uint64, len(st.Keys))
		st.Owners = make([]uint64, len(st.Keys))
		var arena []byte
		for j, k := range st.Keys {
			v := sh.data[k]
			arena = append(arena, v...)
			st.Vals[j] = arena[len(arena)-len(v):]
			m := sh.meta[k]
			st.Cycles[j], st.Owners[j] = m.cycle, m.owner
		}
	}
	return out
}

// RestoreShards replaces the store's contents, metadata and log chains
// with an image. The shard count must match the one the image was taken
// with — per-shard log digests are running chains and cannot be
// re-partitioned.
func (s *Store) RestoreShards(states []ShardState) error {
	if len(states) != len(s.shards) {
		return fmt.Errorf("kvstore: image has %d shards, store has %d", len(states), len(s.shards))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		st := &states[i]
		sh.data = make(map[uint64][]byte, len(st.Keys))
		sh.meta, sh.owned = nil, nil
		for j, k := range st.Keys {
			v := make([]byte, len(st.Vals[j]))
			copy(v, st.Vals[j])
			sh.data[k] = v
			var m keyMeta
			if j < len(st.Cycles) {
				m.cycle = st.Cycles[j]
			}
			if j < len(st.Owners) {
				m.owner = st.Owners[j]
			}
			if m != (keyMeta{}) {
				if sh.meta == nil {
					sh.meta = make(map[uint64]keyMeta, len(st.Keys))
				}
				sh.meta[k] = m
				if m.owner != 0 {
					sh.attachOwner(m.owner, k)
				}
			}
		}
		sh.logLen, sh.logDigest = st.LogLen, st.LogDigest
	}
	return nil
}

// StateDigest returns an order-insensitive digest of current contents,
// for comparing replica states regardless of how they were reached (it
// is also shard-count independent).
func (s *Store) StateDigest() uint64 {
	keys := s.sortedKeys()
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
		h.Write(s.Read(k))
	}
	return h.Sum64()
}
