package main

import (
	"time"

	"canopus/internal/wire"
)

// keySpace is the number of keys every workload preloads and draws from.
const keySpace = 65536

// satWindow is the closed-loop window: outstanding operations per
// connection in the saturation phase, re-issued from the reply callback.
const satWindow = 64

// fullSeconds is the default run length: warm 2 s, lo and hi 5 s each,
// mid 14 s, saturation 6 s, tail 8 s. Another -seconds changes every phase
// by the same factor.
const fullSeconds = 40

// Phase shares of -seconds. The mid rate gets the largest: the latencies,
// the allocations and the CPU time per request are measured there, lo and
// hi only decide max_rate_ok_req_s.
const (
	warmShare = 0.05
	loShare   = 0.125
	midShare  = 0.35
	hiShare   = 0.125
	satShare  = 0.15
	tailShare = 0.20
)

// ladderShares are the shares of the lo, mid and hi phase.
var ladderShares = [3]float64{loShare, midShare, hiShare}

// workload is one frozen traffic mix and topology. The cluster runs its
// production defaults; a workload sets only topology, durability and
// injected delay (and the cycle interval the paper pairs with that delay).
type workload struct {
	name        string
	why         string
	superLeaves [][]wire.NodeID
	writeFrac   float64
	valueBytes  int
	rates       [3]float64 // lo, mid, hi offered load in req/s
	limitMs     float64    // p99 limit for max_rate_ok_req_s
	// durable gives every node a real-disk WAL and adds the power-cut
	// restart before the crash tail.
	durable bool
	// crash adds the crash tail. The 9-node workloads go without: there
	// the crash of a super-leaf member trips, about once in a hundred
	// runs, two defects this benchmark found and may not fix (the
	// survivors of the dead node's super-leaf never deliver their own
	// Round 1 proposals again and the cluster stops; internal/raftlite
	// indexes past the end of a leader's log and panics).
	crash     bool
	wanOneWay time.Duration // injected between super-leaves; 0 = no chaos fabric
	cycle     time.Duration
}

func (w *workload) nodes() int {
	n := 0
	for _, sl := range w.superLeaves {
		n += len(sl)
	}
	return n
}

var (
	oneLeaf     = [][]wire.NodeID{{0, 1, 2}}
	threeLeaves = [][]wire.NodeID{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
)

// The ladder rates and limits are calibrated once on the 2-core reference
// box (see README.md, "Calibration") and change only in a later benchmark
// issue.
var workloads = []workload{
	{
		name:        "mixed_3n",
		why:         "paper's standard 20% write mix on one super-leaf, in memory: client and port codecs, cycle wait and the Round 1 broadcast do the work; WAL and rounds >= 2 do none",
		superLeaves: oneLeaf,
		writeFrac:   0.2,
		valueBytes:  8,
		rates:       [3]float64{10000, 20000, 40000},
		limitMs:     10,
		cycle:       2 * time.Millisecond,
		crash:       true,
	},
	{
		name:        "write_9n",
		why:         "90% writes of 128 B on 9 nodes in 3 super-leaves: every write is fetched over two rounds and applied on 9 replicas, so proposal codec, transport bytes and apply dominate",
		superLeaves: threeLeaves,
		writeFrac:   0.9,
		valueBytes:  128,
		rates:       [3]float64{2000, 4000, 8000},
		limitMs:     20,
		cycle:       2 * time.Millisecond,
	},
	{
		name:        "durable_3n",
		why:         "mixed_3n topology with a real-disk WAL and 50% writes: every committed cycle is appended and fsynced before its replies, so the WAL sets latency; the difference to mixed_3n is the cost of durability",
		superLeaves: oneLeaf,
		writeFrac:   0.5,
		valueBytes:  8,
		rates:       [3]float64{10000, 20000, 40000},
		limitMs:     25,
		durable:     true,
		cycle:       2 * time.Millisecond,
		crash:       true,
	},
	{
		name:        "wan_9n",
		why:         "write_9n topology with 5 ms one-way delay injected between super-leaves, 20% writes: latency is delay times rounds and pipelining depth, not CPU; codec, apply and WAL changes must show no change",
		superLeaves: threeLeaves,
		writeFrac:   0.2,
		valueBytes:  8,
		rates:       [3]float64{2000, 4000, 8000},
		limitMs:     60,
		wanOneWay:   5 * time.Millisecond,
		cycle:       5 * time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
