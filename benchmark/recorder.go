package main

import (
	"math"
	"slices"
)

// Latency samples are exact: one int32 of microseconds per request, in a
// slice allocated before the phase starts. The states below mark requests
// that have no latency.
const (
	latUnanswered int32 = -1 // sent, no reply by the end of the drain
	latFailed     int32 = -2 // replied with an error, or refused
	latUnsent     int32 = -3 // the phase ended before the request was issued
)

// percentile returns the q-quantile of sorted by the nearest-rank rule
// (the smallest sample with at least a share q of the samples at or below
// it); 0 for an empty slice.
func percentile(sorted []int32, q float64) int32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supported reports whether n samples carry the q-quantile: at least ten
// samples must lie beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// latSummary is the latency of one class of requests in one phase of
// several slices.
type latSummary struct {
	n int
	// p50 is the sliceMean of the slices' medians, in ms.
	p50 float64
	// p99 is the median of the p99s of groups of consecutive slices: as
	// many groups as leave each the 1000 samples that put ten beyond its
	// p99 (one slice a group when the slices are that large). One stall
	// of some tens of milliseconds (a collection, a slow fsync, a
	// neighbour on the host) lifts the p99 of a whole phase of a few
	// seconds or leaves it alone depending on its length, so the p99 of
	// all samples differs several-fold between runs of the same code; the
	// median over groups is the tail the phase usually has.
	p99   float64
	p99ok bool // ten samples lie beyond the p99 of every group
	// p99whole is the p99 of all samples together and max the largest;
	// they show the stall the p99 hides.
	p99whole float64
	max      float64
}

// summarizeSlices folds the sorted microsecond samples of a phase's
// slices into its latSummary.
func summarizeSlices(perSlice [][]int32) latSummary {
	var s latSummary
	var all []int32
	var p50s []float64
	for _, us := range perSlice {
		if len(us) > 0 {
			all = append(all, us...)
			p50s = append(p50s, float64(percentile(us, 0.50))/1000)
		}
	}
	s.n = len(all)
	if s.n == 0 {
		return s
	}
	slices.Sort(all)
	s.p50 = sliceMean(p50s)
	s.p99whole = float64(percentile(all, 0.99)) / 1000
	s.max = float64(all[len(all)-1]) / 1000

	// The most groups of consecutive slices that all carry their p99.
	groups := s.n / 1000
	if groups > len(perSlice) {
		groups = len(perSlice)
	}
	var grouped [][]int32
	for ; ; groups-- {
		if groups < 1 {
			groups = 1
		}
		grouped = make([][]int32, groups)
		for i, us := range perSlice {
			g := i * groups / len(perSlice)
			grouped[g] = append(grouped[g], us...)
		}
		s.p99ok = true
		for _, us := range grouped {
			s.p99ok = s.p99ok && supported(len(us), 0.99)
		}
		if s.p99ok || groups == 1 {
			break
		}
	}
	var p99s []float64
	for _, us := range grouped {
		slices.Sort(us)
		p99s = append(p99s, float64(percentile(us, 0.99))/1000)
	}
	s.p99 = median(p99s)
	return s
}

// sliceMean is the statistic a phase reports over its slices: the mean
// after dropping the largest and the smallest eighth. A mean, because the
// slices sample the cluster's cycle-clock offsets and the mean averages
// over them where the median would pick one (see slicesPerPhase);
// trimmed, because one slice that caught a stall of a few hundred
// milliseconds would otherwise move the mean of sixteen by several-fold.
func sliceMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	trim := len(s) / 8
	s = s[trim : len(s)-trim]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// backlogGrows reports whether the in-flight count, sampled at a fixed
// cadence over a slice, kept rising: the median of the last third is more
// than twice the median of the first third plus slack (the number of
// requests that arrive in one millisecond, at least 8).
func backlogGrows(samples []int, rate float64) bool {
	if len(samples) < 6 {
		return false
	}
	third := len(samples) / 3
	first := medianInt(samples[:third])
	last := medianInt(samples[len(samples)-third:])
	slack := rate / 1000
	if slack < 8 {
		slack = 8
	}
	return float64(last) > 2*float64(first)+slack
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	slices.Sort(s)
	return s[len(s)/2]
}

// rateResult is what one ladder phase contributes to max_rate_ok_req_s.
type rateResult struct {
	rate     float64
	p99ms    float64 // worst of the read and write p99
	failed   int     // failed + refused + unanswered
	growing  bool
	lateP99  float64 // generator lateness, µs
	sentFrac float64
}

// ok reports whether the phase met the workload's latency limit with no
// failure and no growing backlog.
func (r rateResult) ok(limitMs float64) bool {
	return r.failed == 0 && !r.growing && r.p99ms <= limitMs
}

// maxRateOK is the highest ladder rate that met the limit. A rate counts
// only if every lower rate met it too: a system that fails at 20k and
// passes at 40k has not shown it can carry 40k.
func maxRateOK(ladder []rateResult, limitMs float64) float64 {
	best := 0.0
	for _, r := range ladder {
		if !r.ok(limitMs) {
			break
		}
		best = r.rate
	}
	return best
}
