package kvstore

import (
	"sort"

	"canopus/internal/wire"
)

// Key metadata for the event plane: every live key remembers the commit
// cycle that last wrote it (backing GuardCycleLE transactions) and an
// optional owning session (ephemeral keys, deleted automatically when
// the owner expires). Metadata is replicated state — every replica
// derives it from the same committed order — but it is deliberately
// kept out of LogDigest/StateDigest so digests stay comparable with
// pre-event-plane stores. A deleted key's metadata is dropped entirely:
// re-creating the key starts from modification cycle 0, which every
// CycleLE guard passes.

// keyMeta is one key's event-plane metadata.
type keyMeta struct {
	cycle uint64
	owner uint64
}

// ApplyWriteAt is ApplyWrite plus metadata stamping: the write is
// recorded as of commit cycle, and a non-zero owner binds the key to
// that session (ephemeral). A plain write (owner 0) clears any existing
// binding. It returns the store's own immutable copy of the written
// value (nil for a delete), which callers may retain instead of copying
// req.Val again. Concurrency contract is the same as ApplyWrite.
func (s *Store) ApplyWriteAt(req *wire.Request, cycle, owner uint64) []byte {
	sh := &s.shards[s.ShardOf(req.Key)]
	if req.Op == wire.OpDelete {
		sh.dropMeta(req.Key)
	} else if cycle == 0 && owner == 0 {
		sh.dropMeta(req.Key)
	} else {
		old, had := sh.meta[req.Key]
		if had && old.owner != 0 && old.owner != owner {
			sh.detachOwner(old.owner, req.Key)
		}
		if sh.meta == nil {
			sh.meta = make(map[uint64]keyMeta)
		}
		sh.meta[req.Key] = keyMeta{cycle: cycle, owner: owner}
		if owner != 0 && (!had || old.owner != owner) {
			sh.attachOwner(owner, req.Key)
		}
	}
	return s.apply(req)
}

func (sh *shard) dropMeta(key uint64) {
	if m, ok := sh.meta[key]; ok {
		if m.owner != 0 {
			sh.detachOwner(m.owner, key)
		}
		delete(sh.meta, key)
	}
}

func (sh *shard) attachOwner(owner, key uint64) {
	if sh.owned == nil {
		sh.owned = make(map[uint64]map[uint64]struct{})
	}
	set := sh.owned[owner]
	if set == nil {
		set = make(map[uint64]struct{})
		sh.owned[owner] = set
	}
	set[key] = struct{}{}
}

func (sh *shard) detachOwner(owner, key uint64) {
	if set := sh.owned[owner]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(sh.owned, owner)
		}
	}
}

// ModCycle returns the commit cycle that last wrote key, or 0 when the
// key is absent, was deleted, or predates cycle tracking.
func (s *Store) ModCycle(key uint64) uint64 {
	return s.shards[s.ShardOf(key)].meta[key].cycle
}

// OwnerOf returns the session owning key (0 for unowned keys).
func (s *Store) OwnerOf(key uint64) uint64 {
	return s.shards[s.ShardOf(key)].meta[key].owner
}

// ExpireOwned deletes every key bound to owner, returning the deleted
// keys sorted ascending (the deletion order, so every replica's commit
// log chains identically). Callers invoke it from the serial apply
// context when a session expires.
func (s *Store) ExpireOwned(owner uint64) []uint64 {
	var keys []uint64
	for i := range s.shards {
		for k := range s.shards[i].owned[owner] {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		req := wire.Request{Client: owner, Op: wire.OpDelete, Key: k}
		s.ApplyWriteAt(&req, 0, 0)
	}
	return keys
}
