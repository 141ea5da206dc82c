package wal

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"canopus/internal/core"
	"canopus/internal/kvstore"
	"canopus/internal/metrics"
	"canopus/internal/wire"
)

// Manager ties one node's log and snapshots together and implements
// core.Durable. All mutating calls (AppendCommit, Sync, Recover, Close)
// run on one goroutine at a time — the node's apply stage, the boot
// goroutine during recovery — exactly the contract core.Durable states. Stats reads are safe from
// anywhere.
type Manager struct {
	fs    FS
	store *kvstore.Store
	log   *logWriter

	// shadow mirrors the replicated session table by replaying every
	// appended root — the same derivation recovery uses — so snapshots
	// capture session state coherent with their cycle without touching
	// the node's table across goroutines.
	shadow *kvstore.SessionTable

	snapEvery   int
	snapCycle   uint64 // newest on-disk snapshot's cycle
	haveSnap    bool
	appended    uint64 // last appended cycle
	pending     uint64 // records since the last Sync
	firstAppend uint64 // first cycle ever appended by this process (0 = none yet)

	durable   metrics.Gauge // last fsynced cycle
	appends   metrics.Counter
	syncs     metrics.Counter
	synced    metrics.Counter // records covered by syncs
	lastBatch metrics.Gauge   // cycles covered by the most recent Sync
	snapshots metrics.Counter
	fsync     metrics.LatencyHistogram
	snapCycG  metrics.Gauge // atomic mirror of snapCycle for scrapers
	// snapReq is the admin gateway's snapshot trigger: POST /snapshot
	// sets it from an HTTP goroutine; the next Sync (on the durability
	// goroutine, where snapshots are legal) consumes it.
	snapReq atomic.Bool
}

var _ core.Durable = (*Manager)(nil)

// Options configures a Manager.
type Options struct {
	// FS is the node's disk: DirFS over a data directory, or a MemFS in
	// simulations and tests.
	FS FS
	// Store is the node's state machine; snapshots read and restore it.
	Store *kvstore.Store
	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int
	// SnapshotCycles takes a snapshot every N appended cycles (default
	// 4096; negative disables periodic snapshots).
	SnapshotCycles int
}

// Open creates a Manager over the disk. Call Recover before Init and
// before any appends; an empty disk recovers to nothing and leaves the
// node untouched.
func Open(opts Options) (*Manager, error) {
	if opts.Store == nil {
		return nil, errors.New("wal: Options.Store is required")
	}
	if opts.FS == nil {
		return nil, errors.New("wal: Options.FS is required")
	}
	snapEvery := opts.SnapshotCycles
	if snapEvery == 0 {
		snapEvery = 4096
	}
	return &Manager{
		fs:        opts.FS,
		store:     opts.Store,
		log:       newLogWriter(opts.FS, opts.SegmentBytes),
		shadow:    kvstore.NewSessionTable(),
		snapEvery: snapEvery,
	}, nil
}

// AppendCommit implements core.Durable: frame and buffer one committed
// cycle's root. Durable only after the next Sync.
func (m *Manager) AppendCommit(cycle uint64, root *wire.Proposal) error {
	if err := m.log.append(cycle, root); err != nil {
		return err
	}
	m.applyShadow(cycle, root)
	if m.firstAppend == 0 {
		m.firstAppend = cycle
	}
	m.appended = cycle
	m.pending++
	m.appends.Add(1)
	return nil
}

// Sync implements core.Durable: one fsync covers every append since the
// last Sync (the group commit), then the snapshot cadence runs — on the
// same goroutine the applies ran on, so the store read is coherent with
// the appended watermark.
func (m *Manager) Sync() error {
	start := time.Now()
	if err := m.log.sync(); err != nil {
		return err
	}
	m.fsync.Observe(time.Since(start))
	m.durable.Set(m.appended)
	m.syncs.Add(1)
	m.synced.Add(m.pending)
	m.lastBatch.Set(m.pending)
	m.pending = 0
	if m.shouldSnapshot() {
		return m.snapshot()
	}
	return nil
}

func (m *Manager) shouldSnapshot() bool {
	if m.appended == 0 {
		return false
	}
	if m.snapReq.Load() {
		return true
	}
	if !m.haveSnap && m.firstAppend > 1 {
		// The node started mid-stream (join-protocol state transfer, or
		// recovery before any snapshot existed): the store holds state the
		// log does not reach back to, so force a baseline immediately.
		return true
	}
	return m.snapEvery > 0 && m.appended-m.snapCycle >= uint64(m.snapEvery)
}

// snapshot publishes the store's image at the appended watermark and
// drops log segments (and older snapshots) the new baseline supersedes.
func (m *Manager) snapshot() error {
	cycle := m.appended
	err := writeSnapshot(m.fs, cycle, m.store.SnapshotShards(), m.shadow.Snapshot(),
		m.store.StateDigest(), m.store.LogDigest())
	if err != nil {
		return err
	}
	m.snapCycle, m.haveSnap = cycle, true
	m.snapCycG.Set(cycle)
	m.snapshots.Add(1)
	m.snapReq.Store(false)
	m.truncate(cycle)
	return nil
}

// RequestSnapshot asks for a snapshot at the next group commit. Safe
// from any goroutine (the admin gateway calls it from HTTP handlers);
// the snapshot itself still runs on the durability goroutine, where the
// store read is coherent with the appended watermark.
func (m *Manager) RequestSnapshot() { m.snapReq.Store(true) }

// truncate removes snapshots older than the previous one and log
// segments every record of which is at or below the snapshot cycle. A
// segment's reach ends where its successor starts, so only whole prefix
// segments go; the newest segment always stays.
func (m *Manager) truncate(cycle uint64) {
	names, err := m.fs.List()
	if err != nil {
		return
	}
	var segs []uint64
	var snaps []uint64
	for _, name := range names {
		if c, ok := parseSegName(name); ok {
			segs = append(segs, c)
		}
		if c, ok := parseSnapName(name); ok && c < cycle {
			snaps = append(snaps, c)
		}
	}
	// Keep the newest superseded snapshot as a fallback; drop the rest.
	for i, c := range snaps {
		if i < len(snaps)-1 {
			m.fs.Remove(snapName(c))
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= cycle+1 {
			m.fs.Remove(segName(segs[i]))
		}
	}
}

// Close flushes and closes the log. The node must be closed (or idle)
// first.
func (m *Manager) Close() error { return m.log.close() }

// Stats is a point-in-time view of the durability counters.
type Stats struct {
	DurableCycle  uint64 // last fsynced cycle
	Syncs         uint64 // group commits issued
	SyncedRecords uint64 // cycles made durable across all syncs
	LastBatch     uint64 // cycles covered by the most recent fsync
	Snapshots     uint64
}

// Stats reads the counters; safe from any goroutine. WAL lag is the
// node's applied watermark minus DurableCycle.
func (m *Manager) Stats() Stats {
	return Stats{
		DurableCycle:  m.durable.Load(),
		Syncs:         m.syncs.Load(),
		SyncedRecords: m.synced.Load(),
		LastBatch:     m.lastBatch.Load(),
		Snapshots:     m.snapshots.Load(),
	}
}

// DurableCycle returns the last fsynced cycle; safe from any goroutine.
func (m *Manager) DurableCycle() uint64 { return m.durable.Load() }

// RegisterMetrics exports the durability instruments into reg under the
// canopus_wal_* names with the given constant labels. Everything sampled
// is already atomic, so registration costs the durability goroutine
// nothing. Safe on a nil registry.
func (m *Manager) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	reg.CounterFunc("canopus_wal_appends_total",
		"Committed cycle roots framed into the log.",
		m.appends.Load, labels...)
	reg.GaugeFunc("canopus_wal_durable_cycle",
		"Last fsynced cycle (the durability watermark).",
		func() float64 { return float64(m.durable.Load()) }, labels...)
	reg.CounterFunc("canopus_wal_fsyncs_total",
		"Group commits issued (one fsync each).",
		m.syncs.Load, labels...)
	reg.CounterFunc("canopus_wal_synced_records_total",
		"Cycles made durable across all group commits.",
		m.synced.Load, labels...)
	reg.GaugeFunc("canopus_wal_group_commit_batch",
		"Cycles covered by the most recent fsync.",
		func() float64 { return float64(m.lastBatch.Load()) }, labels...)
	reg.AttachHistogram("canopus_wal_fsync_seconds",
		"Latency of the group-commit fsync.",
		&m.fsync, labels...)
	reg.CounterFunc("canopus_wal_snapshots_total",
		"Snapshots published.",
		m.snapshots.Load, labels...)
	reg.GaugeFunc("canopus_wal_snapshot_cycle",
		"Cycle of the newest on-disk snapshot (0 = none).",
		func() float64 { return float64(m.snapCycG.Load()) }, labels...)
	reg.GaugeFunc("canopus_wal_snapshot_age_cycles",
		"Durable cycles accumulated since the newest snapshot (replay cost bound).",
		func() float64 {
			d, s := m.durable.Load(), m.snapCycG.Load()
			if d <= s {
				return 0
			}
			return float64(d - s)
		}, labels...)
}

// RecoveryInfo summarizes what Recover rebuilt.
type RecoveryInfo struct {
	// SnapshotCycle is the baseline snapshot's cycle (0 = none found).
	SnapshotCycle uint64
	// Durable is the node's watermark after replay.
	Durable uint64
	// Replayed counts WAL records re-committed on top of the snapshot.
	Replayed int
}

// errGap marks a hole in the replayable cycle sequence — unlike a torn
// tail, this is never tolerable.
var errGap = errors.New("wal: cycle gap in log")

// Recover rebuilds node state from the directory: restore the newest
// decodable snapshot (verified against its digest trailer), replay the
// WAL tail through core.Node.ReplayCommit, and leave the log positioned
// to append into a fresh segment. Must run before n.Init and before any
// appends. An empty directory is a clean first boot: nothing happens.
func (m *Manager) Recover(n *core.Node) (RecoveryInfo, error) {
	var info RecoveryInfo
	names, err := m.fs.List()
	if err != nil {
		return info, err
	}
	var segs []uint64
	var snaps []uint64
	for _, name := range names {
		if c, ok := parseSegName(name); ok {
			segs = append(segs, c)
		}
		if c, ok := parseSnapName(name); ok {
			snaps = append(snaps, c)
		}
	}
	// Names list sorted ascending (hex, fixed width): walk snapshots
	// newest first, falling back past undecodable ones.
	var base uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := m.readFile(snapName(snaps[i]))
		if err != nil {
			continue
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			continue
		}
		if len(snap.Shards) != m.store.NumShards() {
			return info, fmt.Errorf("wal: snapshot has %d shards, store configured with %d (shard count must be stable per data dir)",
				len(snap.Shards), m.store.NumShards())
		}
		if err := m.store.RestoreShards(snap.Shards); err != nil {
			return info, err
		}
		if got := m.store.StateDigest(); got != snap.StateDigest {
			return info, fmt.Errorf("%w: snapshot state digest mismatch (got %x want %x)", ErrCorrupt, got, snap.StateDigest)
		}
		if got := m.store.LogDigest(); got != snap.LogDigest {
			return info, fmt.Errorf("%w: snapshot log digest mismatch (got %x want %x)", ErrCorrupt, got, snap.LogDigest)
		}
		n.RestoreState(snap.Cycle, snap.Sessions)
		m.shadow.Restore(snap.Sessions)
		base = snap.Cycle
		m.snapCycle, m.haveSnap = base, true
		m.snapCycG.Set(base)
		info.SnapshotCycle = base
		break
	}
	// Replay the log tail. A scan error is a torn tail — tolerable as
	// long as no later segment proves records are missing (the next
	// counter catches that as a gap). This also forgives the stale torn
	// suffix a previous recovery left behind mid-directory.
	next := base + 1
	for i, start := range segs {
		if i+1 < len(segs) && segs[i+1] <= base+1 {
			continue // every record at or below the snapshot: skip unread
		}
		data, err := m.readFile(segName(start))
		if err != nil {
			return info, err
		}
		scanErr := ScanSegment(data, func(cycle uint64, root *wire.Proposal) error {
			if cycle <= base {
				return nil
			}
			if cycle != next {
				return fmt.Errorf("%w: have %d, log continues at %d", errGap, next-1, cycle)
			}
			if err := n.ReplayCommit(cycle, root); err != nil {
				return err
			}
			m.applyShadow(cycle, root)
			next++
			info.Replayed++
			return nil
		})
		if scanErr != nil && !errors.Is(scanErr, ErrCorrupt) {
			return info, scanErr
		}
	}
	info.Durable = next - 1
	m.appended = info.Durable
	m.durable.Set(info.Durable)
	// New appends go to a fresh segment (the writer rotates on first
	// append), never onto a possibly-torn tail.
	return info, nil
}

// applyShadow folds one committed root into the shadow session table —
// the same derivation ReplayCommit applies to the node's table, so the
// two stay identical at every cycle boundary.
func (m *Manager) applyShadow(cycle uint64, root *wire.Proposal) {
	for _, u := range root.Sessions {
		if u.Expire {
			m.shadow.Expire(u.ID)
		} else {
			m.shadow.Register(u.ID, cycle)
		}
	}
	for _, b := range root.Batches {
		for i := range b.Reqs {
			req := &b.Reqs[i]
			if !wire.IsSessionID(req.Client) {
				continue
			}
			if _, verdict := m.shadow.Begin(req.Client, req.Seq, cycle); verdict == kvstore.SessionApply {
				m.shadow.Record(req.Client, req.Seq, nil)
			}
		}
	}
}

func (m *Manager) readFile(name string) ([]byte, error) {
	f, err := m.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
