package netsim

import (
	"fmt"
	"time"

	"canopus/internal/wire"
)

// Link is one unidirectional network link with a bandwidth-limited FIFO
// transmit queue and a fixed propagation delay. Serialization is modeled
// store-and-forward: a message occupies the link for size/bandwidth and
// then propagates for Delay.
type Link struct {
	Name      string
	Bandwidth float64 // bytes per second; 0 = infinite
	Delay     time.Duration

	busyUntil time.Duration
	bytes     uint64 // total bytes carried (for utilization reporting)
}

// Transmit queues size bytes on the link starting no earlier than now and
// returns the arrival time at the far end.
func (l *Link) Transmit(now time.Duration, size int) time.Duration {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var ser time.Duration
	if l.Bandwidth > 0 {
		ser = time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	}
	l.busyUntil = start + ser
	l.bytes += uint64(size)
	return l.busyUntil + l.Delay
}

// BytesCarried returns the total bytes transmitted over the link.
func (l *Link) BytesCarried() uint64 { return l.bytes }

// NodeInfo places one protocol node in the physical topology.
type NodeInfo struct {
	ID   wire.NodeID
	DC   int
	Rack int // global rack index
}

// Params configures link speeds and delays for the topology builders.
// Zero values are replaced by defaults matching the paper's testbed
// (§8.1: 10 Gbps NICs and ToR links, 2×10 Gbps rack uplinks, Mellanox
// SX1012 switches; §8.2: EC2 c3.4xlarge across 7 regions).
type Params struct {
	NodeBandwidth   float64       // node NIC, bytes/s (default 10 Gbps)
	UplinkBandwidth float64       // rack ToR -> aggregation, bytes/s (default 2x10 Gbps)
	WANBandwidth    float64       // per DC pair per direction, bytes/s (default 2.5 Gbps)
	IntraRackDelay  time.Duration // NIC->ToR->NIC one-way (default 25us)
	InterRackDelay  time.Duration // additional ToR->agg->ToR one-way (default 50us)
	LoopbackDelay   time.Duration // self-send (default 5us)
	// WANDelay[i][j] is the one-way delay from DC i to DC j. Required for
	// multi-DC topologies.
	WANDelay [][]time.Duration
}

func (p *Params) fill() {
	if p.NodeBandwidth == 0 {
		p.NodeBandwidth = 10e9 / 8
	}
	if p.UplinkBandwidth == 0 {
		p.UplinkBandwidth = 20e9 / 8
	}
	if p.WANBandwidth == 0 {
		p.WANBandwidth = 2.5e9 / 8
	}
	if p.IntraRackDelay == 0 {
		p.IntraRackDelay = 25 * time.Microsecond
	}
	if p.InterRackDelay == 0 {
		p.InterRackDelay = 50 * time.Microsecond
	}
	if p.LoopbackDelay == 0 {
		p.LoopbackDelay = 5 * time.Microsecond
	}
}

// Emulated WAN latency classes: nominal one-way delays for common
// geographic spans, used to build WANDelay matrices without hand-picking
// per-pair numbers. They bracket the paper's Table 1 measurements (EC2,
// 7 regions): same-metro pairs at a few hundred microseconds up to
// transoceanic pairs above 100ms RTT.
const (
	// MetroOneWay: datacenters in one metropolitan area (<100 km).
	MetroOneWay = 500 * time.Microsecond
	// RegionalOneWay: one geographic region (e.g. US-East to US-Central).
	RegionalOneWay = 10 * time.Millisecond
	// ContinentalOneWay: across a continent (e.g. coast to coast).
	ContinentalOneWay = 35 * time.Millisecond
	// IntercontinentalOneWay: transoceanic (e.g. US to Europe or Asia).
	IntercontinentalOneWay = 75 * time.Millisecond
)

// UniformWANDelay builds a WANDelay matrix with the same one-way delay
// between every distinct DC pair (zero diagonal).
func UniformWANDelay(dcs int, oneWay time.Duration) [][]time.Duration {
	m := make([][]time.Duration, dcs)
	for i := range m {
		m[i] = make([]time.Duration, dcs)
		for j := range m[i] {
			if i != j {
				m[i][j] = oneWay
			}
		}
	}
	return m
}

// GeoWANDelay builds a WANDelay matrix from per-DC latency classes:
// class[i] is DC i's distance tier, and the delay between two DCs is the
// larger of their classes — a metro DC talking to an intercontinental
// one pays the intercontinental span. A symmetric, deterministic stand-in
// for a measured matrix when the test only needs "geo-scale" shape.
func GeoWANDelay(class []time.Duration) [][]time.Duration {
	m := make([][]time.Duration, len(class))
	for i := range m {
		m[i] = make([]time.Duration, len(class))
		for j := range m[i] {
			if i == j {
				continue
			}
			m[i][j] = class[i]
			if class[j] > m[i][j] {
				m[i][j] = class[j]
			}
		}
	}
	return m
}

// Topology is the physical network: nodes placed in racks and
// datacenters, and the directed links between them.
type Topology struct {
	Nodes  []NodeInfo
	params Params

	nodeUp   []*Link // node NIC transmit
	nodeDown []*Link // node NIC receive
	rackUp   []*Link // rack -> DC aggregation
	rackDown []*Link // DC aggregation -> rack
	// wan[i][j] is the link from DC i to DC j (nil on the diagonal).
	wan   [][]*Link
	racks int
	dcs   int
}

// SingleDC builds the paper's single-datacenter testbed: `racks` racks
// with `perRack` Canopus nodes each, dual-homed ToR switches feeding one
// aggregation switch (§8.1). With 3 racks and 3/5/7/9 nodes per rack the
// uplink oversubscription is 1.5/2.5/3.5/4.5, exactly the paper's setup.
func SingleDC(racks, perRack int, p Params) *Topology {
	p.fill()
	t := &Topology{params: p, racks: racks, dcs: 1}
	id := wire.NodeID(0)
	for r := 0; r < racks; r++ {
		for n := 0; n < perRack; n++ {
			t.Nodes = append(t.Nodes, NodeInfo{ID: id, DC: 0, Rack: r})
			id++
		}
	}
	t.buildLinks()
	return t
}

// MultiDC builds the paper's wide-area deployment: `dcs` datacenters of
// `perDC` nodes each (one rack per DC), with per-pair WAN links whose
// delays come from p.WANDelay (Table 1 in the paper).
func MultiDC(dcs, perDC int, p Params) *Topology {
	p.fill()
	if len(p.WANDelay) < dcs {
		panic(fmt.Sprintf("netsim: WANDelay matrix %d smaller than dc count %d", len(p.WANDelay), dcs))
	}
	t := &Topology{params: p, racks: dcs, dcs: dcs}
	id := wire.NodeID(0)
	for d := 0; d < dcs; d++ {
		for n := 0; n < perDC; n++ {
			t.Nodes = append(t.Nodes, NodeInfo{ID: id, DC: d, Rack: d})
			id++
		}
	}
	t.buildLinks()
	return t
}

// MultiDCFromRTT is MultiDC with the WAN given as a round-trip matrix
// (rtt[i][j] between DCs i and j, as Table 1 reports it): each one-way
// delay is half the round trip.
func MultiDCFromRTT(dcs, perDC int, rtt [][]time.Duration) *Topology {
	oneway := make([][]time.Duration, dcs)
	for i := range oneway {
		oneway[i] = make([]time.Duration, dcs)
		for j := range oneway[i] {
			if i != j {
				oneway[i][j] = rtt[i][j] / 2
			}
		}
	}
	return MultiDC(dcs, perDC, Params{WANDelay: oneway})
}

func (t *Topology) buildLinks() {
	p := t.params
	t.nodeUp = make([]*Link, len(t.Nodes))
	t.nodeDown = make([]*Link, len(t.Nodes))
	for i := range t.Nodes {
		t.nodeUp[i] = &Link{
			Name:      fmt.Sprintf("n%d-up", i),
			Bandwidth: p.NodeBandwidth,
			Delay:     p.IntraRackDelay / 2,
		}
		t.nodeDown[i] = &Link{
			Name:      fmt.Sprintf("n%d-down", i),
			Bandwidth: p.NodeBandwidth,
			Delay:     p.IntraRackDelay / 2,
		}
	}
	t.rackUp = make([]*Link, t.racks)
	t.rackDown = make([]*Link, t.racks)
	for r := 0; r < t.racks; r++ {
		t.rackUp[r] = &Link{
			Name:      fmt.Sprintf("rack%d-up", r),
			Bandwidth: p.UplinkBandwidth,
			Delay:     p.InterRackDelay / 2,
		}
		t.rackDown[r] = &Link{
			Name:      fmt.Sprintf("rack%d-down", r),
			Bandwidth: p.UplinkBandwidth,
			Delay:     p.InterRackDelay / 2,
		}
	}
	if t.dcs > 1 {
		t.wan = make([][]*Link, t.dcs)
		for i := 0; i < t.dcs; i++ {
			t.wan[i] = make([]*Link, t.dcs)
			for j := 0; j < t.dcs; j++ {
				if i == j {
					continue
				}
				t.wan[i][j] = &Link{
					Name:      fmt.Sprintf("wan%d-%d", i, j),
					Bandwidth: p.WANBandwidth,
					Delay:     p.WANDelay[i][j],
				}
			}
		}
	}
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// RackMembers returns the node IDs in global rack r, in ID order.
func (t *Topology) RackMembers(r int) []wire.NodeID {
	var out []wire.NodeID
	for _, n := range t.Nodes {
		if n.Rack == r {
			out = append(out, n.ID)
		}
	}
	return out
}

// Racks returns the number of racks.
func (t *Topology) Racks() int { return t.racks }

// DCs returns the number of datacenters.
func (t *Topology) DCs() int { return t.dcs }

// path returns the ordered links a message crosses from src to dst.
// Same-node messages return nil (the loopback delay applies instead).
func (t *Topology) path(src, dst wire.NodeID) []*Link {
	if src == dst {
		return nil
	}
	a, b := t.Nodes[src], t.Nodes[dst]
	switch {
	case a.Rack == b.Rack:
		return []*Link{t.nodeUp[src], t.nodeDown[dst]}
	case a.DC == b.DC:
		return []*Link{t.nodeUp[src], t.rackUp[a.Rack], t.rackDown[b.Rack], t.nodeDown[dst]}
	default:
		return []*Link{t.nodeUp[src], t.rackUp[a.Rack], t.wan[a.DC][b.DC], t.rackDown[b.Rack], t.nodeDown[dst]}
	}
}

// transmit pushes size bytes from src to dst starting at now and returns
// the arrival time at dst.
func (t *Topology) transmit(now time.Duration, src, dst wire.NodeID, size int) time.Duration {
	if src == dst {
		return now + t.params.LoopbackDelay
	}
	at := now
	for _, l := range t.path(src, dst) {
		at = l.Transmit(at, size)
	}
	return at
}

// multicast models switch-assisted replication within a rack: the sender
// serializes once on its NIC, the ToR switch fans out, and each receiver
// pays its own download serialization. Destinations outside the sender's
// rack fall back to unicast.
func (t *Topology) multicast(now time.Duration, src wire.NodeID, dsts []wire.NodeID, size int) []time.Duration {
	arrivals := make([]time.Duration, len(dsts))
	upDone := t.nodeUp[src].Transmit(now, size)
	for i, dst := range dsts {
		switch {
		case dst == src:
			arrivals[i] = now + t.params.LoopbackDelay
		case t.Nodes[dst].Rack == t.Nodes[src].Rack:
			arrivals[i] = t.nodeDown[dst].Transmit(upDone, size)
		default:
			at := upDone
			a, b := t.Nodes[src], t.Nodes[dst]
			links := []*Link{t.rackUp[a.Rack]}
			if a.DC != b.DC {
				links = append(links, t.wan[a.DC][b.DC])
			}
			links = append(links, t.rackDown[b.Rack], t.nodeDown[dst])
			for _, l := range links {
				at = l.Transmit(at, size)
			}
			arrivals[i] = at
		}
	}
	return arrivals
}
