// Package metrics provides the measurement tools the benchmark harness
// needs — log-bucketed latency histograms, availability windows and
// atomic counters — and, on top of the same primitives, the named-instrument
// Registry the operations plane exports through the admin gateway's
// /metrics endpoint (see registry.go). Everything is allocation-light so
// measurement does not perturb simulations or the live hot path.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// histogram resolution: buckets per power of two ("sub-buckets"), giving
// a worst-case quantile error of about 1/subBuckets.
const subBuckets = 32

// numBuckets covers 1ns .. ~9s of latency.
const numBuckets = 64 * subBuckets

// Histogram is a log-bucketed latency histogram. The zero value is ready
// to use.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

func bucketOf(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	exp := 63 - leadingZeros(v)
	var sub uint64
	if exp >= 5 {
		sub = (v >> (uint(exp) - 5)) & (subBuckets - 1)
	} else {
		sub = (v << (5 - uint(exp))) & (subBuckets - 1)
	}
	i := exp*subBuckets + int(sub)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

func bucketLow(i int) time.Duration {
	exp := i / subBuckets
	sub := i % subBuckets
	base := uint64(1) << uint(exp)
	var lo uint64
	if exp >= 5 {
		lo = base + uint64(sub)<<(uint(exp)-5)
	} else {
		lo = base + uint64(sub)>>(5-uint(exp))
	}
	return time.Duration(lo)
}

func leadingZeros(v uint64) int {
	n := 0
	if v == 0 {
		return 64
	}
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

// Add records count observations of latency d.
func (h *Histogram) Add(d time.Duration, count uint64) {
	if count == 0 {
		return
	}
	h.buckets[bucketOf(d)] += count
	h.count += count
	h.sum += d * time.Duration(count)
	if h.min == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Observe records a single observation.
func (h *Histogram) Observe(d time.Duration) { h.Add(d, 1) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean latency, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min and Max return observed extremes.
func (h *Histogram) Min() time.Duration { return h.min }
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile q in [0,1] (bucket lower
// bound), or 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return bucketLow(i)
		}
	}
	return h.max
}

// Median returns the 50th-percentile latency.
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if h.min == 0 || (other.min != 0 && other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram: empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean().Round(time.Microsecond),
		h.Median().Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}

// Availability tracks service liveness over a run from discrete
// progress events (typically cycle commits at a reference replica). The
// chaos harness uses it to report how long fault injection actually
// interrupted service and how quickly the system recovered.
//
// Events must be recorded in non-decreasing time order (simulations
// observe commits on a monotone virtual clock).
type Availability struct {
	// Window is the bucketing granularity for Fraction (default 100ms).
	Window time.Duration
	events []time.Duration
}

func (a *Availability) window() time.Duration {
	if a.Window <= 0 {
		return 100 * time.Millisecond
	}
	return a.Window
}

// Record notes one progress event at time t.
func (a *Availability) Record(t time.Duration) { a.events = append(a.events, t) }

// Events returns the number of recorded events.
func (a *Availability) Events() int { return len(a.events) }

// Fraction returns the fraction of whole windows in [start, end) that
// contain at least one event — the run's availability. It returns 0 when
// the interval spans no full window.
func (a *Availability) Fraction(start, end time.Duration) float64 {
	w := a.window()
	n := int((end - start) / w)
	if n <= 0 {
		return 0
	}
	seen := make([]bool, n)
	for _, t := range a.events {
		if t < start || t >= start+time.Duration(n)*w {
			continue
		}
		seen[int((t-start)/w)] = true
	}
	up := 0
	for _, s := range seen {
		if s {
			up++
		}
	}
	return float64(up) / float64(n)
}

// WindowCounts returns the per-window event counts over the whole
// windows in [start, end) — the availability timeline at Window
// granularity. Chaos results carry it so a test can assert the exact
// shape of an outage (service up, gap while a dead leaf times out,
// service resumed) rather than just its aggregate fraction.
func (a *Availability) WindowCounts(start, end time.Duration) []int {
	w := a.window()
	n := int((end - start) / w)
	if n <= 0 {
		return nil
	}
	counts := make([]int, n)
	for _, t := range a.events {
		if t < start || t >= start+time.Duration(n)*w {
			continue
		}
		counts[int((t-start)/w)]++
	}
	return counts
}

// LongestGap returns the longest event-free span inside [start, end],
// counting the lead-in before the first event and the tail after the
// last one. With no events it returns end-start.
func (a *Availability) LongestGap(start, end time.Duration) time.Duration {
	longest := time.Duration(0)
	prev := start
	for _, t := range a.events {
		if t < start {
			continue
		}
		if t > end {
			break
		}
		if gap := t - prev; gap > longest {
			longest = gap
		}
		prev = t
	}
	if gap := end - prev; gap > longest {
		longest = gap
	}
	return longest
}

// RecoveryAfter returns how long after the fault at t the first
// subsequent event occurred, and whether one occurred at all.
func (a *Availability) RecoveryAfter(t time.Duration) (time.Duration, bool) {
	for _, e := range a.events {
		if e >= t {
			return e - t, true
		}
	}
	return 0, false
}

// Counter is a concurrency-safe monotone event counter. The durability
// subsystem uses counters for fsync and group-commit accounting, where
// the writer (a node's apply stage) and readers (stats scrapers) run on
// different goroutines.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a concurrency-safe instantaneous value (last group-commit
// batch size, durable-cycle watermark, ...).
type Gauge struct{ v atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n uint64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() uint64 { return g.v.Load() }

// FormatRate renders a requests/second figure the way the paper's plots
// label their axes (millions of requests per second).
func FormatRate(rps float64) string {
	switch {
	case rps >= 1e6:
		return fmt.Sprintf("%.2fM", rps/1e6)
	case rps >= 1e3:
		return fmt.Sprintf("%.0fk", rps/1e3)
	default:
		return fmt.Sprintf("%.0f", rps)
	}
}

// Table renders an aligned text table; the harness uses it to print the
// same rows the paper's figures plot.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hdr := range t.Header {
		widths[i] = len(hdr)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
