package kvstore

import (
	"sort"
	"sync"
	"sync/atomic"

	"canopus/internal/wire"
)

// SessionWindow bounds how many applied-but-uncompacted sequence numbers
// one session retains. The dedup table normally compacts contiguously
// applied seqs away; gaps (an op the client abandoned after a double
// failure, or reordered pipelined retries) park entries until the window
// overflows, at which point the floor is forced forward. An op older
// than the window that straggles in afterwards is treated as a duplicate
// — clients bound their pipelines far below this.
const SessionWindow = 1024

// SessionVerdict classifies one committed session mutation.
type SessionVerdict uint8

const (
	// SessionApply: first sight of this (session, seq) — apply it to the
	// state machine and Record the reply.
	SessionApply SessionVerdict = iota
	// SessionDuplicate: already applied — return the cached reply, do
	// not touch the state machine.
	SessionDuplicate
	// SessionUnknown: the session is not in the table (expired, or never
	// registered) — do not apply; the serving node reports expiry.
	SessionUnknown
)

// sessionEntry is one session's dedup state.
type sessionEntry struct {
	low        uint64            // every seq < low is known applied (replies discarded)
	max        uint64            // highest applied seq
	applied    map[uint64][]byte // applied seqs >= low -> cached reply
	lastActive uint64            // commit cycle of the last mutation (or registration)
	// The most recent transaction's (seq, result), surviving floor
	// compaction: unlike a plain mutation's bare ack, a retried txn must
	// learn whether the original committed or aborted even after its seq
	// compacted away. Only the latest txn per session is retained.
	txnSeq uint64
	txnVal []byte
}

// SessionTable is the replicated client-session dedup table: session
// registrations, expiries, and per-mutation classification all happen at
// commit boundaries in the committed total order, so every replica holds
// an identical table (the same invariant as the membership view and the
// lease table). A mutex makes it safe to drive from two contexts at
// once: the machine turn classifies (Begin/Record) while the node's apply
// stage records and looks up transaction results at apply time.
type SessionTable struct {
	mu       sync.Mutex
	sessions map[uint64]*sessionEntry
	// occ mirrors len(sessions) so metrics scrapers on other goroutines
	// can read the occupancy without synchronizing with the owner.
	occ atomic.Int64
}

// NewSessionTable creates an empty table.
func NewSessionTable() *SessionTable {
	return &SessionTable{sessions: make(map[uint64]*sessionEntry)}
}

// Register adds a session at commit cycle. Re-registering an existing ID
// is a no-op (a duplicate registration proposal).
func (t *SessionTable) Register(id, cycle uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[id]; ok {
		return
	}
	t.sessions[id] = &sessionEntry{low: 1, applied: make(map[uint64][]byte), lastActive: cycle}
	t.occ.Store(int64(len(t.sessions)))
}

// Expire removes a session and its dedup state.
func (t *SessionTable) Expire(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.sessions, id)
	t.occ.Store(int64(len(t.sessions)))
}

// Occupancy returns the number of registered sessions. Unlike Len it is
// safe to call from any goroutine (it reads an atomic mirror), which is
// what the metrics registry samples at scrape time.
func (t *SessionTable) Occupancy() int64 { return t.occ.Load() }

// Has reports whether a session is registered.
func (t *SessionTable) Has(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.sessions[id]
	return ok
}

// Len returns the number of registered sessions.
func (t *SessionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// Begin classifies one committed mutation (session id, seq) at commit
// cycle, refreshing the session's activity clock. On SessionDuplicate
// the cached reply is returned (nil once the seq has been compacted
// below the floor — for the KV state machine every mutation's reply is a
// bare acknowledgement anyway).
func (t *SessionTable) Begin(id, seq, cycle uint64) (cached []byte, verdict SessionVerdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.sessions[id]
	if e == nil {
		return nil, SessionUnknown
	}
	e.lastActive = cycle
	if seq < e.low {
		return nil, SessionDuplicate
	}
	if v, ok := e.applied[seq]; ok {
		return v, SessionDuplicate
	}
	return nil, SessionApply
}

// Record caches the reply of a just-applied (session, seq) — the seq
// Begin classified SessionApply — then compacts: the floor advances over
// contiguously applied seqs, and past SessionWindow outstanding entries
// it is forced forward.
func (t *SessionTable) Record(id, seq uint64, val []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record(id, seq, val)
}

func (t *SessionTable) record(id, seq uint64, val []byte) {
	e := t.sessions[id]
	if e == nil {
		return
	}
	if val != nil {
		v := make([]byte, len(val))
		copy(v, val)
		val = v
	}
	e.applied[seq] = val
	if seq > e.max {
		e.max = seq
	}
	for {
		if _, ok := e.applied[e.low]; !ok {
			break
		}
		delete(e.applied, e.low)
		e.low++
	}
	if e.max >= SessionWindow && e.max-SessionWindow+1 > e.low {
		floor := e.max - SessionWindow + 1
		for s := range e.applied {
			if s < floor {
				delete(e.applied, s)
			}
		}
		e.low = floor
		// Re-compact: the forced floor may now sit on applied seqs.
		for {
			if _, ok := e.applied[e.low]; !ok {
				break
			}
			delete(e.applied, e.low)
			e.low++
		}
	}
}

// RecordTxn records a transaction's result bytes for (session, seq):
// the regular dedup Record plus the compaction-surviving latest-txn
// slot. Safe to call from the apply context while the machine turn
// classifies other requests.
func (t *SessionTable) RecordTxn(id, seq uint64, val []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.sessions[id]
	if e == nil {
		return
	}
	if seq >= e.low {
		t.record(id, seq, val)
	}
	if seq >= e.txnSeq {
		v := make([]byte, len(val))
		copy(v, val)
		e.txnSeq, e.txnVal = seq, v
	}
}

// CachedTxn returns the recorded result of txn (session, seq), or nil
// when it was never recorded or has been displaced by a later txn.
func (t *SessionTable) CachedTxn(id, seq uint64) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.sessions[id]
	if e == nil {
		return nil
	}
	if v, ok := e.applied[seq]; ok && v != nil {
		return v
	}
	if seq == e.txnSeq {
		return e.txnVal
	}
	return nil
}

// IdleBefore returns (sorted, for replayable traces) the sessions whose
// last activity is at or before the given cycle — the idle-GC scan.
func (t *SessionTable) IdleBefore(cycle uint64) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []uint64
	for id, e := range t.sessions {
		if e.lastActive <= cycle {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Snapshot renders the table for a join-protocol state transfer,
// deterministically ordered. The latest-txn slot rides along as an
// Applied entry (possibly below the floor), so a joiner can still
// answer a retried txn with the original outcome.
func (t *SessionTable) Snapshot() []wire.SessionState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sessions) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(t.sessions))
	for id := range t.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]wire.SessionState, 0, len(ids))
	for _, id := range ids {
		e := t.sessions[id]
		st := wire.SessionState{ID: id, Low: e.low, LastActive: e.lastActive}
		stickyTxn := e.txnSeq > 0
		if _, ok := e.applied[e.txnSeq]; ok {
			stickyTxn = false
		}
		if len(e.applied) > 0 || stickyTxn {
			seqs := make([]uint64, 0, len(e.applied)+1)
			for s := range e.applied {
				seqs = append(seqs, s)
			}
			if stickyTxn {
				seqs = append(seqs, e.txnSeq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			st.Applied = make([]wire.SessionReply, 0, len(seqs))
			for _, s := range seqs {
				v := e.applied[s]
				if stickyTxn && s == e.txnSeq {
					v = e.txnVal
				}
				st.Applied = append(st.Applied, wire.SessionReply{Seq: s, Val: v})
			}
		}
		out = append(out, st)
	}
	return out
}

// Restore replaces the table's contents with a snapshot (the join
// protocol's state install).
func (t *SessionTable) Restore(states []wire.SessionState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = make(map[uint64]*sessionEntry, len(states))
	for i := range states {
		st := &states[i]
		e := &sessionEntry{low: st.Low, applied: make(map[uint64][]byte, len(st.Applied)), lastActive: st.LastActive}
		if e.low == 0 {
			e.low = 1
		}
		e.max = e.low - 1
		for j := range st.Applied {
			rep := &st.Applied[j]
			var v []byte
			if rep.Val != nil {
				v = make([]byte, len(rep.Val))
				copy(v, rep.Val)
			}
			e.applied[rep.Seq] = v
			if rep.Seq > e.max {
				e.max = rep.Seq
			}
		}
		t.sessions[st.ID] = e
	}
	t.occ.Store(int64(len(t.sessions)))
}
