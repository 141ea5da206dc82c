package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the named-instrument surface behind the operations plane:
// subsystems register Counter/Gauge/Histogram instruments once at wiring
// time (registration takes a lock; instrument updates afterwards are
// plain atomic operations, allocation-free on the hot path), and the
// admin gateway renders the whole set in the Prometheus text exposition
// format. Sampled instruments (CounterFunc/GaugeFunc) read an existing
// atomic through a closure only at scrape time, so exporting a value the
// subsystem already maintains costs the hot path nothing at all.
//
// A nil *Registry is valid everywhere: instrument constructors return
// detached instruments (updates go nowhere) and sampled registrations
// are dropped, so callers wire metrics unconditionally.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	// droppedSeries counts registrations refused by the per-family
	// cardinality guard; exposed as canopus_metrics_dropped_series_total.
	droppedSeries Counter
}

// maxSeriesPerFamily is the label-cardinality guard: one metric name
// admits at most this many label sets. Registrations beyond it return
// detached instruments and count into droppedSeries — an unbounded label
// (a client address, a key) can then never run the exporter out of
// memory. Sized for the per-peer families (canopus_transport_peer_up is
// node×peer: a 9-node in-process cluster sharing one registry needs 72
// series) with headroom, while still far below anything unbounded.
const maxSeriesPerFamily = 128

// Label is one constant name/value pair attached to an instrument at
// registration time.
type Label struct{ Key, Value string }

type instrumentKind uint8

const (
	counterKind instrumentKind = iota
	gaugeKind
	counterFuncKind
	gaugeFuncKind
	histogramKind
)

func (k instrumentKind) String() string {
	switch k {
	case counterKind, counterFuncKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is every series sharing one metric name.
type family struct {
	name string
	help string
	kind instrumentKind

	series  []*series
	byLabel map[string]*series
}

// series is one (name, label set) instrument.
type series struct {
	labels []Label
	key    string // canonical label encoding, for idempotent lookup

	c  *Counter
	g  *Gauge
	fn atomic.Pointer[func() float64] // CounterFunc, GaugeFunc
	h  *LatencyHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or returns the already-registered) named counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	s := r.register(name, help, counterKind, labels)
	if s == nil {
		return new(Counter)
	}
	if s.c == nil {
		s.c = new(Counter)
	}
	return s.c
}

// Gauge registers (or returns the already-registered) named gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	s := r.register(name, help, gaugeKind, labels)
	if s == nil {
		return new(Gauge)
	}
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// CounterFunc registers a counter sampled from fn at scrape time —
// the way to export a monotone atomic a subsystem already maintains
// without adding anything to its hot path. Registering the series again
// replaces fn, also while a scrape runs.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	if s := r.register(name, help, counterFuncKind, labels); s != nil {
		f := func() float64 { return float64(fn()) }
		s.fn.Store(&f)
	}
}

// GaugeFunc registers a gauge sampled from fn at scrape time; registering
// it again replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	if s := r.register(name, help, gaugeFuncKind, labels); s != nil {
		s.fn.Store(&fn)
	}
}

// Histogram registers (or returns the already-registered) named latency
// histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *LatencyHistogram {
	if r == nil {
		return new(LatencyHistogram)
	}
	s := r.register(name, help, histogramKind, labels)
	if s == nil {
		return new(LatencyHistogram)
	}
	if s.h == nil {
		s.h = new(LatencyHistogram)
	}
	return s.h
}

// AttachHistogram adopts an existing histogram under the given name, for
// subsystems that embed their instrument by value (the WAL manager) and
// only later meet a registry.
func (r *Registry) AttachHistogram(name, help string, h *LatencyHistogram, labels ...Label) {
	if r == nil {
		return
	}
	if s := r.register(name, help, histogramKind, labels); s != nil {
		s.h = h
	}
}

// register resolves (family, label set) under the registry lock,
// creating as needed. It returns nil when the cardinality guard refused
// the series (the caller hands back a detached instrument).
func (r *Registry) register(name, help string, kind instrumentKind, labels []Label) *series {
	validateName(name)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered twice with different kinds (%s then %s)",
			name, f.kind, kind))
	}
	if s, ok := f.byLabel[key]; ok {
		return s
	}
	if len(f.series) >= maxSeriesPerFamily {
		r.droppedSeries.Add(1)
		return nil
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	f.byLabel[key] = s
	f.series = append(f.series, s)
	return s
}

func validateName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
}

// labelKey canonicalizes a label set (sorted by key) so registration is
// idempotent regardless of argument order.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// value samples one non-histogram series.
func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Load())
	case s.g != nil:
		return float64(s.g.Load())
	}
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): HELP/TYPE headers per family,
// one line per series, histograms as cumulative le-buckets plus _sum and
// _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	dropped := r.droppedSeries.Load()
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		writeHeader(&b, f.name, f.help, f.kind.String())
		for _, s := range f.series {
			if f.kind == histogramKind {
				writeHistogram(&b, f.name, s)
				continue
			}
			writeName(&b, f.name, s.labels, "")
			fmt.Fprintf(&b, " %s\n", formatValue(s.value()))
		}
	}
	if dropped > 0 {
		writeHeader(&b, "canopus_metrics_dropped_series_total",
			"Series refused by the per-metric label-cardinality guard.", "counter")
		fmt.Fprintf(&b, "canopus_metrics_dropped_series_total %d\n", dropped)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// writeName renders `name{labels}` with extra appended to the label set
// (histogram le), escaping label values per the exposition format.
func writeName(b *strings.Builder, name string, labels []Label, extra string) {
	b.WriteString(name)
	if len(labels) == 0 && extra == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		escapeLabel(b, l.Value)
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
}

func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	if h == nil {
		h = new(LatencyHistogram)
	}
	var cum uint64
	for i, bound := range latencyBounds {
		cum += h.buckets[i].Load()
		writeName(b, name+"_bucket", s.labels, fmt.Sprintf(`le="%s"`, formatValue(bound)))
		fmt.Fprintf(b, " %d\n", cum)
	}
	count := h.count.Load()
	writeName(b, name+"_bucket", s.labels, `le="+Inf"`)
	fmt.Fprintf(b, " %d\n", count)
	writeName(b, name+"_sum", s.labels, "")
	fmt.Fprintf(b, " %s\n", formatValue(h.SumSeconds()))
	writeName(b, name+"_count", s.labels, "")
	fmt.Fprintf(b, " %d\n", count)
}

// formatValue renders a float the exposition format accepts, preferring
// integer rendering for whole values.
func formatValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Each calls fn for every non-histogram series with its sampled value;
// histograms contribute their _count and _sum. The harness uses it to
// fold a run's instrument values into benchmark JSON.
func (r *Registry) Each(fn func(name string, labels []Label, value float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		for _, s := range f.series {
			if f.kind == histogramKind {
				h := s.h
				if h == nil {
					continue
				}
				fn(f.name+"_count", s.labels, float64(h.Count()))
				fn(f.name+"_sum", s.labels, h.SumSeconds())
				continue
			}
			fn(f.name, s.labels, s.value())
		}
	}
}

// latencyBounds are the histogram's upper bucket bounds in seconds
// (+Inf is implicit): enough resolution from a fast local fsync (tens of
// microseconds on an SSD) to a pathological multi-second stall.
var latencyBounds = [...]float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// latencyBoundNanos mirrors latencyBounds in integer nanoseconds so
// Observe classifies without floating-point work.
var latencyBoundNanos = func() [len(latencyBounds)]int64 {
	var out [len(latencyBounds)]int64
	for i, b := range latencyBounds {
		out[i] = int64(b * float64(time.Second))
	}
	return out
}()

// LatencyHistogram is a fixed-bucket concurrent latency histogram with
// Prometheus-style cumulative exposition. Unlike the harness Histogram
// (single-goroutine, high resolution), observations are atomic — safe
// from any goroutine — and allocation-free. The zero value is ready to
// use.
type LatencyHistogram struct {
	buckets  [len(latencyBounds)]atomic.Uint64 // per-bound (non-cumulative) counts
	overflow atomic.Uint64                     // observations above the last bound
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

// Observe records one latency observation.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n := int64(d)
	idx := -1
	for i, bound := range latencyBoundNanos {
		if n <= bound {
			idx = i
			break
		}
	}
	if idx >= 0 {
		h.buckets[idx].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	h.sumNanos.Add(uint64(n))
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observations in seconds.
func (h *LatencyHistogram) SumSeconds() float64 {
	return float64(h.sumNanos.Load()) / float64(time.Second)
}
