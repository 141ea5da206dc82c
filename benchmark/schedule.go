package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"
)

// op is one pre-generated request: when it is due (nanoseconds from the
// start of its phase), what it does and to which key. The value is the
// key's next counter, assigned when the request is issued; issue order
// equals schedule order, so it follows from the seed as well.
type op struct {
	dueNs int64
	key   uint32
	write bool
}

// phaseSeed derives the RNG seed of one connection's share of one phase
// from the run seed, so phases and connections draw independent streams
// and a phase's inputs do not depend on how earlier phases went.
func phaseSeed(seed int64, phase string, conn int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(conn+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(phase) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// keyFor draws a key owned by connection conn. Keys are partitioned by
// residue so that all writes to one key travel over one connection, in
// order: its counter is then monotone in commit order and "the last
// acknowledged write" is well defined. Uniform draws inside each class
// make the overall distribution uniform over the key space.
func keyFor(rng *rand.Rand, conn, conns int) uint32 {
	per := keySpace / conns
	return uint32(rng.Intn(per)*conns + conn)
}

// openSchedule is connection conn's share of a Poisson arrival process of
// rate req/s in total, lasting dur.
func openSchedule(seed int64, phase string, conn, conns int, rate float64, dur time.Duration, writeFrac float64) []op {
	rng := rand.New(rand.NewSource(phaseSeed(seed, phase, conn)))
	perConn := rate / float64(conns)
	meanGap := float64(time.Second) / perConn
	ops := make([]op, 0, int(perConn*dur.Seconds()*1.05)+16)
	t := rng.ExpFloat64() * meanGap
	for t < float64(dur) {
		ops = append(ops, op{
			dueNs: int64(t),
			key:   keyFor(rng, conn, conns),
			write: rng.Float64() < writeFrac,
		})
		t += rng.ExpFloat64() * meanGap
	}
	return ops
}

// putValue writes the value of key's ctr-th write into buf: the counter in
// the first 8 bytes, then filler that depends on the key only.
func putValue(buf []byte, key, ctr uint32) {
	binary.LittleEndian.PutUint64(buf, uint64(ctr))
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(key) + byte(i)
	}
}

// valueCounter is the inverse of putValue; ok is false when val cannot be
// a value this benchmark wrote.
func valueCounter(val []byte, key uint32, size int) (ctr uint32, ok bool) {
	if len(val) != size {
		return 0, false
	}
	for i := 8; i < len(val); i++ {
		if val[i] != byte(key)+byte(i) {
			return 0, false
		}
	}
	c := binary.LittleEndian.Uint64(val)
	if c > math.MaxUint32 {
		return 0, false
	}
	return uint32(c), true
}
