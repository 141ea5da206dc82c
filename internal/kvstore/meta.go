package kvstore

import (
	"maps"
	"slices"

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
// req.Val again.
func (s *Store) ApplyWriteAt(req *wire.Request, cycle, owner uint64) []byte {
	if req.Op == wire.OpDelete {
		s.dropMeta(req.Key)
	} else if cycle == 0 && owner == 0 {
		s.dropMeta(req.Key)
	} else {
		old, had := s.meta[req.Key]
		if had && old.owner != 0 && old.owner != owner {
			s.detachOwner(old.owner, req.Key)
		}
		if s.meta == nil {
			s.meta = make(map[uint64]keyMeta)
		}
		s.meta[req.Key] = keyMeta{cycle: cycle, owner: owner}
		if owner != 0 && (!had || old.owner != owner) {
			s.attachOwner(owner, req.Key)
		}
	}
	return s.apply(req)
}

func (s *Store) dropMeta(key uint64) {
	if m, ok := s.meta[key]; ok {
		if m.owner != 0 {
			s.detachOwner(m.owner, key)
		}
		delete(s.meta, key)
	}
}

func (s *Store) attachOwner(owner, key uint64) {
	if s.owned == nil {
		s.owned = make(map[uint64]map[uint64]struct{})
	}
	set := s.owned[owner]
	if set == nil {
		set = make(map[uint64]struct{})
		s.owned[owner] = set
	}
	set[key] = struct{}{}
}

func (s *Store) detachOwner(owner, key uint64) {
	if set := s.owned[owner]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(s.owned, owner)
		}
	}
}

// ModCycle returns the commit cycle that last wrote key, or 0 when the
// key is absent, was deleted, or predates cycle tracking.
func (s *Store) ModCycle(key uint64) uint64 {
	return s.meta[key].cycle
}

// OwnerOf returns the session owning key (0 for unowned keys).
func (s *Store) OwnerOf(key uint64) uint64 {
	return s.meta[key].owner
}

// ExpireOwned deletes every key bound to owner, returning the deleted
// keys sorted ascending (the deletion order, so every replica's commit
// log chains identically). Callers invoke it from the serial apply
// context when a session expires.
func (s *Store) ExpireOwned(owner uint64) []uint64 {
	keys := slices.Sorted(maps.Keys(s.owned[owner]))
	if len(keys) == 0 {
		return nil
	}
	for _, k := range keys {
		req := wire.Request{Client: owner, Op: wire.OpDelete, Key: k}
		s.ApplyWriteAt(&req, 0, 0)
	}
	return keys
}
