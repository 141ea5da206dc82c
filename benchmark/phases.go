package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// drainTimeout bounds the wait for outstanding replies after a slice.
const drainTimeout = 10 * time.Second

// slicesPerPhase is how many slices a lo, hi or saturation phase is cut
// into; the mid phase, which is longer, has midSlices. Each slice is a
// phase in small: its own generated inputs, its own start, its own drain.
// A phase reports a trimmed mean (sliceMean) or a median over its slices,
// never the quotient over the whole phase.
//
// The reason is the cluster's cycle clock. Every node starts a cycle when
// its own timer fires (every CycleInterval, anchored to the node's boot
// time) and joins the cycles its peers start, and a node whose timer
// handler runs a whole interval late re-anchors its timer to "now". After
// any scheduling hiccup the nodes' timers therefore sit at a random
// offset from each other, and the offset persists: near zero a 3-node
// cluster starts 500 cycles a second, near half an interval 1000. Median
// latency, allocations and CPU per request differ by 30% between the two,
// that is between two runs of the same code, or two phases of one run.
// The work the benchmark does between two slices (generating inputs, a
// forced garbage collection) is such a hiccup, so every slice draws a new
// offset and the mean over the slices averages over them; a phase of
// sixteen slices repeats to within a few percent where one long phase
// does not. Holding the nodes' machine turns to force the offset to zero was
// tried instead and stalled the cluster for 100 ms in one phase of
// twenty.
const (
	slicesPerPhase = 8
	midSlices      = 16
)

// ladderSlices are the slice counts of the lo, mid and hi phase.
var ladderSlices = [3]int{slicesPerPhase, midSlices, slicesPerPhase}

// sampleEvery is the cadence at which the in-flight count is sampled.
const sampleEvery = 20 * time.Millisecond

// runner drives one deployment through its phases.
type runner struct {
	d    *deployment
	gens []*gen
	// traced makes open slices record the time inside AsyncOk.
	traced bool
}

func newRunner(d *deployment) *runner {
	r := &runner{d: d}
	for c, cl := range d.clients {
		r.gens = append(r.gens, newGen(c, len(d.clients), cl, d.keys))
	}
	return r
}

// sliceResult is what one slice measured.
type sliceResult struct {
	runs     []*phaseRun
	dur      time.Duration
	inflight []int // sampled every sampleEvery

	attempted  int
	completed  int
	failed     int // replied with an error or refused
	unanswered int // no reply by the end of the drain
	unsent     int // scheduled but not handed over in time

	cpu     time.Duration // process user+sys over the slice and its drain
	mallocs uint64

	write, read, late []int32 // µs, sorted
}

// phaseResult is what one timed phase measured: its slices, their sums,
// and the statistics over them.
type phaseResult struct {
	name   string
	rate   float64 // offered, open loop; 0 for a closed loop
	dur    time.Duration
	slices []*sliceResult

	attempted, completed, failed, unanswered, unsent int

	write, read, late latSummary
	// The sliceMean over the slices of the slice's quotient.
	cpuPerReq    float64 // µs of process user+sys CPU per completed request
	allocsPerReq float64
	throughput   float64 // completed requests per second
	growing      bool    // the backlog grew in most slices
}

func (p *phaseResult) sentFrac() float64 {
	total := p.attempted + p.unsent
	if total == 0 {
		return 1
	}
	return float64(p.attempted) / float64(total)
}

func (p *phaseResult) rateResult() rateResult {
	worst := p.write.p99
	if p.read.p99 > worst {
		worst = p.read.p99
	}
	return rateResult{
		rate:     p.rate,
		p99ms:    worst,
		failed:   p.failed + p.unanswered + p.unsent,
		growing:  p.growing,
		lateP99:  p.late.p99 * 1000,
		sentFrac: p.sentFrac(),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stolenMs is the CPU time, in ms, the hypervisor has taken from this
// machine so far (the steal column of /proc/stat, in 10 ms jiffies); 0
// where there is no such file. A run reports how much it lost, because
// that explains a slow run better than anything the benchmark measures.
func stolenMs() int64 {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	fields := strings.Fields(strings.SplitN(string(buf), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return jiffies * 10
}

// mallocCount is the number of heap objects allocated so far.
func mallocCount() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// totalInflight sums the generators' outstanding requests.
func (r *runner) totalInflight() int {
	n := 0
	for _, g := range r.gens {
		n += int(g.inflight.Load())
	}
	return n
}

// drain waits until every outstanding request is answered.
func (r *runner) drain() {
	deadline := time.Now().Add(drainTimeout)
	for r.totalInflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// run is one slice: it fixes the start, starts every generator on its
// share (and during beside them, when set), samples the in-flight count
// (calling tick at 10 Hz, when set) until the generators are done and the
// replies are drained, and fills in the resource deltas.
func (r *runner) run(s *sliceResult, body func(g *gen, ph *phaseRun), tick func(), during func(base time.Time)) {
	// Collect now what generating the slice's inputs left behind, so that
	// a collection does not start in the slice because of them.
	runtime.GC()
	cpu0, mallocs0 := cpuTime(), mallocCount()
	base := time.Now().Add(2 * time.Millisecond)
	for _, ph := range s.runs {
		ph.base = base
	}

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		ticker := time.NewTicker(sampleEvery)
		defer ticker.Stop()
		end := base.Add(s.dur)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case now := <-ticker.C:
				if now.After(base) && now.Before(end) {
					s.inflight = append(s.inflight, r.totalInflight())
				}
				if tick != nil && i%5 == 0 {
					tick()
				}
			}
		}
	}()

	var wg sync.WaitGroup
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during(base)
		}()
	}
	for i, g := range r.gens {
		wg.Add(1)
		go func(g *gen, ph *phaseRun) {
			defer wg.Done()
			body(g, ph)
		}(g, s.runs[i])
	}
	wg.Wait()
	if rest := time.Until(base.Add(s.dur)); rest > 0 {
		time.Sleep(rest)
	}
	r.drain()
	s.cpu, s.mallocs = cpuTime()-cpu0, mallocCount()-mallocs0
	close(stop)
	sampler.Wait()
}

// openSlice runs one open-loop slice: Poisson arrivals at rate req/s for
// dur, every request timed from its due time.
func (r *runner) openSlice(name string, rate float64, dur time.Duration, tick func(), during func(base time.Time)) *sliceResult {
	s := &sliceResult{dur: dur}
	for c := range r.gens {
		sched := openSchedule(r.d.seed, name, c, len(r.gens), rate, dur, r.d.w.writeFrac)
		ph := &phaseRun{
			durNs: int64(dur), sched: sched,
			lat: make([]int32, len(sched)), late: make([]int32, len(sched)),
		}
		for i := range ph.lat {
			ph.lat[i] = latUnsent
		}
		if r.traced {
			ph.callNs = make([]int32, len(sched))
		}
		s.runs = append(s.runs, ph)
	}
	r.run(s, (*gen).runOpen, tick, during)

	for i, ph := range s.runs {
		g := r.gens[i]
		g.mu.Lock() // a reply that outlived the drain may still be writing
		for j, l := range ph.lat {
			switch {
			case l == latUnsent:
				s.unsent++
				continue
			case l == latUnanswered:
				s.unanswered++
			case l == latFailed:
				s.failed++
			case ph.sched[j].write:
				s.write = append(s.write, l)
			default:
				s.read = append(s.read, l)
			}
			s.attempted++
			s.late = append(s.late, ph.late[j])
		}
		g.mu.Unlock()
	}
	s.completed = len(s.write) + len(s.read)
	slices.Sort(s.write)
	slices.Sort(s.read)
	slices.Sort(s.late)
	return s
}

// closedSlice runs one closed-loop slice: satWindow operations
// outstanding per connection, each reply issuing the next from the reply
// callback.
func (r *runner) closedSlice(name string, dur time.Duration) *sliceResult {
	s := &sliceResult{dur: dur}
	for c := range r.gens {
		s.runs = append(s.runs, &phaseRun{
			durNs: int64(dur), closed: true,
			rng:       rand.New(rand.NewSource(phaseSeed(r.d.seed, name, c))),
			writeFrac: r.d.w.writeFrac,
		})
	}
	r.run(s, (*gen).runClosed, nil, nil)
	for _, ph := range s.runs {
		s.completed += int(ph.completed.Load())
		s.failed += int(ph.failed.Load())
	}
	s.unanswered = r.totalInflight()
	s.attempted = s.completed + s.failed + s.unanswered
	return s
}

// open runs an open-loop phase of n slices and, when the deployment is
// durable, takes the nodes' snapshots after each (see settle). tick and
// during are handed to every slice.
func (r *runner) open(name string, rate float64, dur time.Duration, n int, tick func(), during func(base time.Time, dur time.Duration)) (*phaseResult, error) {
	p := &phaseResult{name: name, rate: rate, dur: dur}
	for i := 0; i < n; i++ {
		sliceDur := dur / time.Duration(n)
		var side func(time.Time)
		if during != nil {
			side = func(base time.Time) { during(base, sliceDur) }
		}
		p.slices = append(p.slices, r.openSlice(fmt.Sprintf("%s.%d", name, i), rate, sliceDur, tick, side))
		if err := r.d.settle(); err != nil {
			return nil, err
		}
	}
	p.summarize()
	return p, nil
}

// closed runs the saturation phase in n slices.
func (r *runner) closed(name string, dur time.Duration, n int) (*phaseResult, error) {
	p := &phaseResult{name: name, dur: dur}
	for i := 0; i < n; i++ {
		p.slices = append(p.slices, r.closedSlice(fmt.Sprintf("%s.%d", name, i), dur/time.Duration(n)))
		if err := r.d.settle(); err != nil {
			return nil, err
		}
	}
	p.summarize()
	return p, nil
}

// summarize folds the slices into the phase's sums and statistics.
func (p *phaseResult) summarize() {
	var write, read, late [][]int32
	var cpu, allocs, rate []float64
	growing := 0
	for _, s := range p.slices {
		p.attempted += s.attempted
		p.completed += s.completed
		p.failed += s.failed
		p.unanswered += s.unanswered
		p.unsent += s.unsent
		write, read, late = append(write, s.write), append(read, s.read), append(late, s.late)
		if s.completed > 0 {
			cpu = append(cpu, float64(s.cpu.Microseconds())/float64(s.completed))
			allocs = append(allocs, float64(s.mallocs)/float64(s.completed))
			rate = append(rate, float64(s.completed)/s.dur.Seconds())
		}
		if backlogGrows(s.inflight, p.rate) {
			growing++
		}
	}
	p.write, p.read, p.late = summarizeSlices(write), summarizeSlices(read), summarizeSlices(late)
	if len(rate) > 0 {
		p.cpuPerReq, p.allocsPerReq, p.throughput = sliceMean(cpu), sliceMean(allocs), sliceMean(rate)
	}
	p.growing = growing*2 > len(p.slices)
	debugf("phase %s rate %.0f: attempted %d completed %d failed %d unanswered %d unsent %d; write %+v read %+v late %+v cpu/req %.1f allocs/req %.1f req/s %.0f",
		p.name, p.rate, p.attempted, p.completed, p.failed, p.unanswered, p.unsent, p.write, p.read, p.late, p.cpuPerReq, p.allocsPerReq, p.throughput)
}

// debug is set by BENCH_DEBUG: progress and, on a failed gate, the nodes'
// protocol watermarks go to standard error.
var debug = os.Getenv("BENCH_DEBUG") != ""

func debugf(format string, args ...interface{}) {
	if debug {
		fmt.Fprintf(os.Stderr, "debug: "+format+"\n", args...)
	}
}
