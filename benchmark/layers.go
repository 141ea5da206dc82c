package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"canopus/internal/core"
	"canopus/internal/engine"
	"canopus/internal/events"
	"canopus/internal/kvstore"
	"canopus/internal/lot"
	"canopus/internal/transport"
	"canopus/internal/wal"
	"canopus/internal/wire"
)

// replayBlock is how many calls one timing sample of a replay covers.
const replayBlock = 1024

// replayOps is how many of the workload's requests the replays use.
const replayOps = 32 * replayBlock

// replay is the workload's own request stream, replayed single-threaded
// into one layer at a time: the layer's public functions are called from
// here, timed from outside in blocks of replayBlock calls, and each
// block is a span. What a layer costs inside the running cluster also
// depends on contention, which this cannot show; what it shows is the
// layer's own work per call, on the inputs the workload really sends.
type replay struct {
	w           *workload
	ops         []op // merged mid-phase schedule, in due order
	opsPerCycle int
	spans       *spanLog
	res         *result
}

// timeBlocks calls fn(i) for i in [0,n) and returns the median time per
// call in nanoseconds, over blocks of replayBlock calls.
func (rp *replay) timeBlocks(name string, n int, fn func(i int)) float64 {
	var perCall []float64
	for lo := 0; lo < n; lo += replayBlock {
		hi := lo + replayBlock
		if hi > n {
			hi = n
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		end := time.Now()
		rp.spans.add(name, start, end, 0)
		perCall = append(perCall, float64(end.Sub(start))/float64(hi-lo))
	}
	return median(perCall)
}

// timeOnce times whole calls of fn and returns the median in
// milliseconds.
func (rp *replay) timeOnce(name string, runs int, fn func()) float64 {
	var ms []float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		fn()
		end := time.Now()
		rp.spans.add(name, start, end, 0)
		ms = append(ms, float64(end.Sub(start))/float64(time.Millisecond))
	}
	return median(ms)
}

// mergedOps merges the per-connection schedules of a phase's slices by
// due time and cycles them up to replayOps requests.
func mergedOps(p *phaseResult) []op {
	var all []op
	for _, sl := range p.slices {
		first := len(all)
		for _, ph := range sl.runs {
			all = append(all, ph.sched...)
		}
		slice := all[first:]
		sort.SliceStable(slice, func(i, j int) bool { return slice[i].dueNs < slice[j].dueNs })
	}
	out := make([]op, replayOps)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

const replaySession = wire.SessionIDBit | 1

// writes returns n write requests drawn from the stream's keys.
func (rp *replay) writes(n, from int) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		val := make([]byte, rp.w.valueBytes)
		key := rp.ops[(from+i)%len(rp.ops)].key
		putValue(val, key, uint32(from+i))
		reqs[i] = wire.Request{Client: replaySession, Seq: uint64(from + i + 1), Op: wire.OpWrite, Key: uint64(key), Val: val}
	}
	return reqs
}

// proposal is a round-1 proposal carrying one cycle's worth of writes.
func (rp *replay) proposal(cycle uint64) *wire.Proposal {
	reqs := rp.writes(rp.opsPerCycle, int(cycle)*rp.opsPerCycle)
	return &wire.Proposal{
		Cycle: cycle, Round: 1, VNode: "1.1", Origin: 0, Num: cycle * 2654435761,
		Batches: []*wire.Batch{{Origin: 0, Reqs: reqs, NumWrite: uint32(len(reqs))}},
	}
}

func preloadedStore(valueBytes int) *kvstore.Store {
	st := kvstore.NewSharded(8)
	for key := 0; key < keySpace; key++ {
		val := make([]byte, valueBytes)
		putValue(val, uint32(key), 1)
		st.ApplyWriteAt(&wire.Request{Op: wire.OpWrite, Key: uint64(key), Val: val}, 1, 0)
	}
	return st
}

func (rp *replay) run() error {
	rp.wire()
	rp.kvstore()
	if err := rp.wal(); err != nil {
		return err
	}
	rp.events()
	if err := rp.lot(); err != nil {
		return err
	}
	return rp.transport()
}

func (rp *replay) wire() {
	n := len(rp.ops)
	val := make([]byte, rp.w.valueBytes)
	putValue(val, 1, 1)

	// Client frames: what canopus/client and the livecluster port encode
	// and parse per operation.
	reqFrames := make([][]byte, n)
	respFrames := make([][]byte, n)
	var one [1]wire.ClientOp
	buf := make([]byte, 0, 256)
	mallocs0 := mallocCount()
	encReq := rp.timeBlocks("wire.req_encode", n, func(i int) {
		o := rp.ops[i]
		q := wire.ClientRequestV2{ID: uint64(i + 1)}
		one[0] = wire.ClientOp{Op: wire.OpRead, Key: uint64(o.key)}
		if o.write {
			q.Session, q.Seq = replaySession, uint64(i+1)
			one[0].Op, one[0].Val = wire.OpWrite, val
		}
		q.Ops = one[:]
		buf = wire.AppendClientRequestV3(buf[:0], &q)
		reqFrames[i] = append(reqFrames[i][:0], buf...)
	})
	var q wire.ClientRequestV2
	var arena []byte
	decReq := rp.timeBlocks("wire.req_decode", n, func(i int) {
		arena = arena[:0]
		if err := wire.ParseClientRequestV3Into(reqFrames[i][4:], &q, &arena); err != nil {
			panic(fmt.Sprintf("benchmark: replayed request frame does not parse: %v", err))
		}
	})
	encResp := rp.timeBlocks("wire.resp_encode", n, func(i int) {
		resp := wire.ClientResponseV2{ID: uint64(i + 1), Status: wire.ClientStatusOK, Cycle: uint64(i)}
		if !rp.ops[i].write {
			resp.Val = val
		}
		buf = wire.AppendClientResponseV3(buf[:0], &resp)
		respFrames[i] = append(respFrames[i][:0], buf...)
	})
	decResp := rp.timeBlocks("wire.resp_decode", n, func(i int) {
		if _, err := wire.ParseClientResponseV3(respFrames[i][4:]); err != nil {
			panic(fmt.Sprintf("benchmark: replayed response frame does not parse: %v", err))
		}
	})
	// The frame copies above are the benchmark's own: two per operation.
	allocs := float64(mallocCount()-mallocs0)/float64(n) - 2
	rp.res.layer("wire.req_encode_ns", encReq, "ns", n)
	rp.res.layer("wire.req_decode_ns", decReq, "ns", n)
	rp.res.layer("wire.resp_encode_ns", encResp, "ns", n)
	rp.res.layer("wire.resp_decode_ns", decResp, "ns", n)
	rp.res.layer("wire.allocs_per_op", allocs, "count", n)

	// Proposals: what the nodes exchange per cycle.
	const cycles = 256
	props := make([]*wire.Proposal, cycles)
	for c := range props {
		props[c] = rp.proposal(uint64(c + 1))
	}
	frames := make([][]byte, cycles)
	enc := rp.timeBlocks("wire.proposal_encode", cycles, func(i int) {
		frames[i] = props[i].AppendTo(frames[i][:0])
	})
	dec := rp.timeBlocks("wire.proposal_decode", cycles, func(i int) {
		if _, _, err := wire.Decode(frames[i]); err != nil {
			panic(fmt.Sprintf("benchmark: replayed proposal does not decode: %v", err))
		}
	})
	rp.res.layer("wire.proposal_encode_ns_per_op", enc/float64(rp.opsPerCycle), "ns", cycles)
	rp.res.layer("wire.proposal_decode_ns_per_op", dec/float64(rp.opsPerCycle), "ns", cycles)
}

func (rp *replay) kvstore() {
	n := len(rp.ops)
	st := preloadedStore(rp.w.valueBytes)
	reqs := rp.writes(n, 0)
	apply := rp.timeBlocks("kvstore.apply", n, func(i int) {
		st.ApplyWriteAt(&reqs[i], uint64(2+i/replayBlock), 0)
	})
	var sink []byte
	read := rp.timeBlocks("kvstore.read", n, func(i int) {
		sink = st.Read(uint64(rp.ops[i].key))
	})
	_ = sink
	tbl := kvstore.NewSessionTable()
	tbl.Register(replaySession, 1)
	session := rp.timeBlocks("kvstore.session_begin", n, func(i int) {
		seq := uint64(i + 1)
		if _, verdict := tbl.Begin(replaySession, seq, 2); verdict == kvstore.SessionApply {
			tbl.Record(replaySession, seq, nil)
		}
	})
	digest := rp.timeOnce("kvstore.digest", 5, func() { st.StateDigest() })
	snapshot := rp.timeOnce("kvstore.snapshot", 5, func() {
		fresh := kvstore.NewSharded(8)
		if err := fresh.RestoreShards(st.SnapshotShards()); err != nil {
			panic(fmt.Sprintf("benchmark: restore of a fresh snapshot failed: %v", err))
		}
	})
	rp.res.layer("kvstore.apply_ns", apply, "ns", n)
	rp.res.layer("kvstore.read_ns", read, "ns", n)
	rp.res.layer("kvstore.session_begin_ns", session, "ns", n)
	rp.res.layer("kvstore.digest_ms", digest, "ms", 5)
	rp.res.layer("kvstore.snapshot_ms", snapshot, "ms", 5)
}

func (rp *replay) wal() error {
	const cycles = 2048
	fs := wal.NewMemFS()
	mgr, err := wal.Open(wal.Options{FS: fs, Store: kvstore.NewSharded(8)})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	props := make([]*wire.Proposal, cycles)
	for c := range props {
		props[c] = rp.proposal(uint64(c + 1))
	}
	var appendErr error
	perCycle := rp.timeBlocks("wal.append", cycles, func(i int) {
		if err := mgr.AppendCommit(uint64(i+1), props[i]); err != nil && appendErr == nil {
			appendErr = err
		}
		if err := mgr.Sync(); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return fmt.Errorf("wal replay: %w", appendErr)
	}
	if err := mgr.Close(); err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	tree, err := lot.New(lot.Config{SuperLeaves: oneLeaf})
	if err != nil {
		return err
	}
	var recoverErr error
	recoverMs := rp.timeOnce("wal.recover", 3, func() {
		st := kvstore.NewSharded(8)
		m, err := wal.Open(wal.Options{FS: fs, Store: st})
		if err != nil {
			recoverErr = err
			return
		}
		node := core.NewNode(core.Config{Tree: tree, Self: 0}, st, core.Callbacks{})
		info, err := m.Recover(node)
		node.Close()
		if err == nil && info.Durable != cycles {
			err = fmt.Errorf("recovered to cycle %d of %d", info.Durable, cycles)
		}
		if err != nil && recoverErr == nil {
			recoverErr = err
		}
	})
	if recoverErr != nil {
		return fmt.Errorf("wal replay: recover: %w", recoverErr)
	}
	rp.res.layer("wal.append_us_per_cycle", perCycle/1000, "us", cycles)
	rp.res.layer("wal.recover_ms", recoverMs, "ms", 3)
	return nil
}

func (rp *replay) events() {
	const cycles = 1024
	evs := make([][]wire.Event, cycles)
	for c := range evs {
		for _, r := range rp.writes(rp.opsPerCycle, c*rp.opsPerCycle) {
			evs[c] = append(evs[c], wire.Event{Op: wire.OpWrite, Key: r.Key, Val: r.Val})
		}
	}
	for _, watchers := range []int{0, 64} {
		hub := events.NewHub(events.Options{})
		for i := 0; i < watchers; i++ {
			// 64 prefixes of 1024 keys each cover the key space once.
			spec := events.Spec{Key: uint64(i) << 10, PrefixBits: 54}
			if _, err := hub.Watch(spec, func(events.Notification) bool { return true }); err != nil {
				panic(fmt.Sprintf("benchmark: watch: %v", err))
			}
		}
		name := fmt.Sprintf("events.publish.w%d", watchers)
		perCycle := rp.timeBlocks(name, cycles, func(i int) { hub.Publish(uint64(i+1), evs[i]) })
		rp.res.layer(fmt.Sprintf("events.publish_ns_per_event.w%d", watchers), perCycle/float64(rp.opsPerCycle), "ns", cycles)
	}
}

func (rp *replay) lot() error {
	tree, err := lot.New(lot.Config{SuperLeaves: threeLeaves})
	if err != nil {
		return err
	}
	view := lot.NewView(tree)
	targets := tree.Children(tree.Ancestor(0, 2))
	var sink int
	ns := rp.timeBlocks("lot.reps_lookup", len(rp.ops), func(i int) {
		sl := i % tree.NumSuperLeaves()
		target := targets[i%len(targets)]
		sink += len(view.Representatives(sl, 2)) + int(view.RepresentativeFor(sl, target, 2)) + len(view.Emulators(target))
	})
	_ = sink
	rp.res.layer("lot.reps_lookup_ns", ns, "ns", len(rp.ops))
	return nil
}

// sinkMachine is the receiving end of the transport replay: it counts
// what arrives.
type sinkMachine struct {
	mu   sync.Mutex
	msgs int
	want int
	done chan struct{}
}

func (m *sinkMachine) Init(engine.Env)       {}
func (m *sinkMachine) Timer(engine.TimerTag) {}
func (m *sinkMachine) Recv(engine.NodeID, wire.Message) {
	m.mu.Lock()
	m.msgs++
	if m.msgs == m.want {
		close(m.done)
	}
	m.mu.Unlock()
}

// transport sends proposals between two Runners on loopback: the time a
// machine turn spends in Send, and the rate at which they arrive.
func (rp *replay) transport() error {
	const msgs = 2048
	peers := map[wire.NodeID]string{}
	a, err := transport.NewRunner(0, "127.0.0.1:0", peers, 1)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewRunner(1, "127.0.0.1:0", peers, 1)
	if err != nil {
		return err
	}
	defer b.Close()
	a.Logf = func(string, ...interface{}) {}
	b.Logf = a.Logf
	peers[0], peers[1] = a.Addr().String(), b.Addr().String()
	recv := &sinkMachine{want: msgs, done: make(chan struct{})}
	a.Attach(&sinkMachine{})
	b.Attach(recv)
	go a.Serve(nil)
	go b.Serve(nil)

	prop := rp.proposal(1)
	size := prop.WireSize()
	start := time.Now()
	perMsg := rp.timeBlocks("transport.send", msgs, func(int) {
		a.Invoke(func() { a.Send(1, prop) })
	})
	select {
	case <-recv.done:
	case <-time.After(20 * time.Second):
		return fmt.Errorf("transport replay: %d of %d proposals arrived in 20 s", recv.msgs, msgs)
	}
	elapsed := time.Since(start)
	rp.spans.add("transport.loopback", start, start.Add(elapsed), 0)
	rp.res.layer("transport.send_ns_per_msg", perMsg, "ns", msgs)
	rp.res.layer("transport.loopback_mb_s", float64(size)*msgs/1e6/elapsed.Seconds(), "MB/s", msgs)
	return nil
}
