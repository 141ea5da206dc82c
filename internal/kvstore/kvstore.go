// Package kvstore is the replicated key-value state machine driven by
// the consensus protocols in this repository: a flat map of 64-bit keys
// to small values (the paper's workload uses 16-byte key-value pairs),
// plus an optional commit log that tests use to prove all replicas
// applied the same sequence.
//
// A store is not safe for concurrent use: internal/core applies every
// committed operation, and serves every committed-state read, on one
// goroutine, its apply stage. Replicas that apply the same write
// sequence hold equal LogDigest/StateDigest values.
package kvstore

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"canopus/internal/wire"
)

// Store implements core.StateMachine. Each protocol node owns one Store.
type Store struct {
	data map[uint64][]byte

	// Event-plane metadata (see meta.go): per-key last-modified cycle
	// and owning session, plus the owner -> keys index driving
	// ephemeral-key expiry. Both are nil until first used.
	meta  map[uint64]keyMeta
	owned map[uint64]map[uint64]struct{}

	// sessions is the replicated client-session table, part of the
	// store's image beside its contents.
	sessions *SessionTable

	// recordLog keeps an order-sensitive digest of applied writes so
	// tests can assert replica equality cheaply.
	recordLog bool
	logLen    uint64
	logDigest uint64
}

// New creates an empty store.
func New() *Store {
	return &Store{data: make(map[uint64][]byte), sessions: NewSessionTable()}
}

// NewLogged creates an empty store that maintains an apply-order digest.
func NewLogged() *Store {
	s := New()
	s.recordLog = true
	return s
}

// Sessions returns the store's replicated client-session table.
func (s *Store) Sessions() *SessionTable { return s.sessions }

// ApplyWrite applies one write without key metadata (the Zab and EPaxos
// baselines apply through it; core uses ApplyWriteAt). OpDelete requests
// remove the key; anything else stores the value.
func (s *Store) ApplyWrite(req *wire.Request) { s.apply(req) }

// apply is ApplyWrite, returning the store's own copy of the written
// value (nil for a delete). The copy is never modified again — a later
// write to the key stores a fresh one — so Read, the event plane and
// anything else may share it for as long as they like.
func (s *Store) apply(req *wire.Request) []byte {
	var v []byte
	if req.Op == wire.OpDelete {
		delete(s.data, req.Key)
	} else {
		v = make([]byte, len(req.Val))
		copy(v, req.Val)
		s.data[req.Key] = v
	}
	if s.recordLog {
		s.logLen++
		h := fnv.New64a()
		var buf [8*4 + 1]byte
		binary.LittleEndian.PutUint64(buf[0:], s.logDigest)
		binary.LittleEndian.PutUint64(buf[8:], req.Client)
		binary.LittleEndian.PutUint64(buf[16:], req.Seq)
		binary.LittleEndian.PutUint64(buf[24:], req.Key)
		buf[32] = uint8(req.Op)
		h.Write(buf[:])
		h.Write(req.Val)
		s.logDigest = h.Sum64()
	}
	return v
}

// Read implements core.StateMachine.
func (s *Store) Read(key uint64) []byte { return s.data[key] }

// Len returns the number of keys present.
func (s *Store) Len() int { return len(s.data) }

// LogLen returns the number of writes applied (when logging).
func (s *Store) LogLen() uint64 { return s.logLen }

// LogDigest returns the order-sensitive digest of applied writes: a
// running FNV-1a chain over every write, so two replicas with equal
// digests applied the same write sequence.
func (s *Store) LogDigest() uint64 { return s.logDigest }

// sortedKeys returns every key, sorted, and the values' total length.
func (s *Store) sortedKeys() (keys []uint64, valBytes int) {
	keys = make([]uint64, 0, len(s.data))
	for k, v := range s.data {
		keys = append(keys, k)
		valBytes += len(v)
	}
	slices.Sort(keys)
	return keys, valBytes
}

// StateDigest returns an order-insensitive digest of current contents,
// for comparing replica states regardless of how they were reached.
func (s *Store) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	keys, _ := s.sortedKeys()
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
		h.Write(s.data[k])
	}
	return h.Sum64()
}
