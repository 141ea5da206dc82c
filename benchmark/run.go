package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// setupRuns is how many times a run sets the workload up; setup_s is the
// median. The last deployment is the one measured.
const setupRuns = 3

// Generator validity limits: a phase whose generator ran later than this,
// or handed over less than this share of its schedule, measured the
// generator and not the cluster. The lateness limit is far above what a
// healthy run shows (0.3-1.5 ms) because the host's slow spells, when a
// tenth of the CPU time is stolen, push it to 6-10 ms, and a run must not
// fail on the weather: the lateness is part of every latency anyway.
const (
	maxLateP99us = 20000
	minSentFrac  = 0.99
)

// errInvalid marks a run whose generator did not keep its schedule.
var errInvalid = errors.New("run invalid")

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a latency; 0 where that has no
	// meaning.
	N int `json:"n,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	NumCPU     int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Conns      int      `json:"connections"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	EndToEnd   []metric `json:"end_to_end,omitempty"`
	PerLayer   []metric `json:"per_layer,omitempty"`
	// Info holds numbers printed for people and not gated: latencies at
	// the lo and hi rates, generator health, per-phase counts.
	Info []metric `json:"info,omitempty"`
}

func (res *result) e2e(name string, v float64, unit string, n int) {
	res.EndToEnd = append(res.EndToEnd, metric{name, v, unit, n})
}

func (res *result) info(name string, v float64, unit string, n int) {
	res.Info = append(res.Info, metric{name, v, unit, n})
}

func (res *result) layer(name string, v float64, unit string, n int) {
	res.PerLayer = append(res.PerLayer, metric{name, v, unit, n})
}

// count adds a timed phase's requests to the run's totals.
func (res *result) count(p *phaseResult) {
	res.Attempted += p.attempted + p.unsent
	res.Failed += p.failed + p.unanswered + p.unsent
}

func phaseDur(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// repeatSetup sets w up setupRuns times, tearing all but the last down again,
// and returns the last deployment with the set-up times in seconds.
func repeatSetup(w *workload, seed int64, dir string, clock *fsClock) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		d, err := setup(w, seed, dir, clock)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRuns-1 {
			return d, times, nil
		}
		d.close()
	}
}

// runWorkload is one untraced run: set-up, warm, the three ladder rates,
// saturation, the restart of a durable workload, the crash tail of a
// 3-node one, and the correctness gate after each of the last three. The
// end-to-end metrics come from here and nowhere else.
func runWorkload(w *workload, seed int64, seconds float64, dir string) (*result, error) {
	res := newResult(w, seed, seconds, false)
	stolen0 := stolenMs()
	d, setupTimes, err := repeatSetup(w, seed, dir, nil)
	if err != nil {
		return nil, err
	}
	defer func() { d.close() }() // d is replaced by the restart tail
	res.Conns = len(d.clients)
	r := newRunner(d)

	if _, err := r.open("warm", w.rates[1], phaseDur(seconds, warmShare), 1, nil, nil); err != nil {
		return nil, err
	}
	var ladder []*phaseResult
	for i, name := range []string{"lo", "mid", "hi"} {
		p, err := r.open(name, w.rates[i], phaseDur(seconds, ladderShares[i]), ladderSlices[i], nil, nil)
		if err != nil {
			return nil, err
		}
		res.count(p)
		ladder = append(ladder, p)
	}
	mid := ladder[1]

	sat, err := r.closed("sat", phaseDur(seconds, satShare), slicesPerPhase)
	if err != nil {
		return nil, err
	}
	res.count(sat)

	if err := d.gate("after saturation"); err != nil {
		return nil, err
	}
	var recoverS float64
	if w.durable {
		res.info("snapshot.settle_ms", median(d.settled), "ms", len(d.settled))
		sent, failed := d.trickleSent.Load(), d.trickleFailed.Load()
		var lost int64
		if d, recoverS, lost, err = restartTail(d); err != nil {
			return nil, err
		}
		d.trickleSent.Add(sent)
		d.trickleFailed.Add(failed)
		res.info("restart.discarded_bytes", float64(lost), "B", 0)
		if err := d.gate("after restart"); err != nil {
			return nil, err
		}
		r = newRunner(d)
	}
	var tail *phaseResult
	var stallMs float64
	if w.crash {
		if tail, stallMs, err = crashTail(r, phaseDur(seconds, tailShare)); err != nil {
			return nil, err
		}
		res.count(tail)
		if err := d.gate("after crash"); err != nil {
			return nil, err
		}
	}

	res.Attempted += int(d.trickleSent.Load())
	res.Failed += int(d.trickleFailed.Load())
	res.info("host.steal_ms", float64(stolenMs()-stolen0), "ms", 0)

	// Generator health first: numbers from a phase the generator could
	// not drive are not reported.
	var rates []rateResult
	for _, p := range ladder {
		rr := p.rateResult()
		rates = append(rates, rr)
		res.info(fmt.Sprintf("rate.%.0f.gen.late_p99_us", p.rate), rr.lateP99, "us", p.late.n)
		res.info(fmt.Sprintf("rate.%.0f.gen.sent_frac", p.rate), rr.sentFrac, "ratio", 0)
	}
	if rr := rates[1]; rr.lateP99 >= maxLateP99us || rr.sentFrac < minSentFrac {
		return nil, fmt.Errorf("%w: at the mid rate the generator ran %.0f µs late at p99 and sent %.4f of its schedule",
			errInvalid, rr.lateP99, rr.sentFrac)
	}

	res.e2e("setup_s", median(setupTimes), "s", len(setupTimes))
	res.e2e("write_p50_ms", mid.write.p50, "ms", mid.write.n)
	res.e2e("read_p50_ms", mid.read.p50, "ms", mid.read.n)
	res.e2e("max_rate_ok_req_s", maxRateOK(validRates(rates), w.limitMs), "req/s", 0)
	res.e2e("sat_throughput_req_s", sat.throughput, "req/s", sat.completed)
	res.e2e("allocs_per_req", mid.allocsPerReq, "count", mid.completed)
	res.e2e("rss_peak_mb", rssPeakMB(), "MB", 0)
	// The rest is printed and written to the result file like the seven
	// above but is not in BENCHMARK.json, whose metrics every workload
	// must report, none may be 0, and each must repeat to within its
	// bound, 25% at most, over ten runs. The p99s and the CPU time per
	// request follow the host's slow spells and spread up to 24%;
	// failed_frac is 0 on a correct run (the driver reads "failed" and
	// "attempted" instead); only a 3-node workload has the crash tail,
	// and its stall is one draw of a 200-400 ms election timeout; only a
	// durable workload can recover.
	res.e2e("write_p99_ms", mid.write.p99, "ms", mid.write.n)
	res.e2e("read_p99_ms", mid.read.p99, "ms", mid.read.n)
	res.e2e("cpu_us_per_req", mid.cpuPerReq, "us", mid.completed)
	res.e2e("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	if w.crash {
		res.e2e("fault_stall_ms", stallMs, "ms", 0)
		reportPhase(res, "tail", tail)
	}
	if w.durable {
		res.e2e("recover_s", recoverS, "s", 0)
	}

	for i, p := range ladder {
		reportPhase(res, fmt.Sprintf("rate.%.0f", p.rate), p)
		res.info(fmt.Sprintf("rate.%.0f.inflight_growing", p.rate), boolFloat(rates[i].growing), "bool", 0)
	}
	for i, s := range setupTimes {
		res.info(fmt.Sprintf("setup.%d_s", i+1), s, "s", 0)
	}
	if !mid.write.p99ok || (mid.read.n > 0 && !mid.read.p99ok) {
		res.info("mid.p99_has_ten_samples_beyond", 0, "bool", 0)
	}
	return res, nil
}

// validRates drops the rates whose generator did not keep its schedule:
// they cannot count as carried.
func validRates(rates []rateResult) []rateResult {
	var out []rateResult
	for _, rr := range rates {
		if rr.lateP99 >= maxLateP99us || rr.sentFrac < minSentFrac {
			break
		}
		out = append(out, rr)
	}
	return out
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func newResult(w *workload, seed int64, seconds float64, traced bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// reportPhase prints a phase's latencies for people.
func reportPhase(res *result, prefix string, p *phaseResult) {
	for _, c := range []struct {
		class string
		s     latSummary
	}{{"write", p.write}, {"read", p.read}} {
		if c.s.n == 0 {
			continue
		}
		res.info(prefix+"."+c.class+"_p50_ms", c.s.p50, "ms", c.s.n)
		res.info(prefix+"."+c.class+"_p99_ms", c.s.p99, "ms", c.s.n)
		res.info(prefix+"."+c.class+"_p99_whole_ms", c.s.p99whole, "ms", c.s.n)
		res.info(prefix+"."+c.class+"_max_ms", c.s.max, "ms", c.s.n)
	}
}

// crashTail offers the mid rate for dur, in one slice, and crashes the
// highest-numbered node a quarter of the way in. It returns the phase and
// the largest (reply - due) among the requests due after the crash: the
// gap in service as a client on a schedule sees it.
func crashTail(r *runner, dur time.Duration) (*phaseResult, float64, error) {
	d := r.d
	victim := d.cluster.NumNodes() - 1
	var crashNs int64
	p, err := r.open("tail", d.w.rates[1], dur, 1, nil, func(base time.Time, dur time.Duration) {
		time.Sleep(time.Until(base.Add(dur / 4)))
		d.crash(victim)
		crashNs = int64(time.Since(base))
	})
	if err != nil {
		return nil, 0, err
	}
	var worst int32
	for _, ph := range p.slices[0].runs {
		for i, l := range ph.lat {
			if ph.sched[i].dueNs >= crashNs && l > worst {
				worst = l
			}
		}
	}
	return p, float64(worst) / 1000, nil
}

// restartTail is the durability test: cut the power (from this instant
// no byte reaches the disks), stop the cluster, discard what no fsync
// covered, start again on the same disks and time how long it takes until
// a linearizable read is served.
func restartTail(d *deployment) (*deployment, float64, int64, error) {
	for _, disk := range d.disks {
		disk.CutPower()
	}
	d.stop()
	var lost int64
	for _, disk := range d.disks {
		n, err := disk.TruncateToSynced()
		if err != nil {
			return d, 0, 0, fmt.Errorf("truncate to last sync: %w", err)
		}
		lost += n
	}
	start := time.Now()
	nd, err := boot(d.w, d.seed, d.disks, d.dataDir, true)
	if err != nil {
		return d, 0, 0, fmt.Errorf("restart: %w", err)
	}
	nd.keys = d.keys
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := nd.clients[0].Get(ctx, 0); err != nil {
		return nd, 0, 0, fmt.Errorf("first read after restart: %w", err)
	}
	return nd, time.Since(start).Seconds(), lost, nil
}
