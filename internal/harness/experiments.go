package harness

import (
	"fmt"
	"io"
	"os"
	"time"

	"canopus/internal/metrics"
)

// Options tunes experiment execution. Quick mode shortens measurement
// windows and search resolution for CI-speed runs; full mode is the
// resolution README's "Build, test, bench" section regenerates the
// figures at. Build one with NewOptions; every experiment entry point
// (Fig4a…Fig7, Table1) takes this single surface.
type Options struct {
	Quick bool
	Seed  int64
	Out   io.Writer
}

// Option mutates Options; see NewOptions.
type Option func(*Options)

// NewOptions builds the experiment configuration. Defaults: full (not
// quick) runs, seed 1, output to os.Stdout.
func NewOptions(opts ...Option) *Options {
	o := &Options{Seed: 1, Out: os.Stdout}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithQuick selects CI-speed windows and search resolution.
func WithQuick(quick bool) Option { return func(o *Options) { o.Quick = quick } }

// WithSeed sets the workload seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithOutput directs the experiment's table output.
func WithOutput(w io.Writer) Option { return func(o *Options) { o.Out = w } }

func (o *Options) windows() (warm, measure time.Duration) {
	if o.Quick {
		return 300 * time.Millisecond, 700 * time.Millisecond
	}
	return 500 * time.Millisecond, 2 * time.Second
}

func (o *Options) wanWindows() (warm, measure time.Duration) {
	if o.Quick {
		return 1500 * time.Millisecond, 1500 * time.Millisecond
	}
	return 2 * time.Second, 3 * time.Second
}

func (o *Options) bisections() int {
	if o.Quick {
		return 2
	}
	return 4
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// Fig4Sizes are the paper's single-DC deployment sizes: 3 racks of
// 3/5/7/9 nodes (oversubscription 1.5–4.5).
var Fig4Sizes = []int{3, 5, 7, 9}

// fig4Row identifies one series of Figure 4.
type fig4Row struct {
	label      string
	system     System
	writeRatio float64
	batch      time.Duration
}

func fig4Rows() []fig4Row {
	return []fig4Row{
		{"Canopus 20% writes", Canopus, 0.20, 0},
		{"Canopus 50% writes", Canopus, 0.50, 0},
		{"Canopus 100% writes", Canopus, 1.00, 0},
		{"EPaxos 5ms batch", EPaxos, 0.20, 5 * time.Millisecond},
		{"EPaxos 2ms batch", EPaxos, 0.20, 2 * time.Millisecond},
	}
}

func fig4Spec(o *Options, row fig4Row, perRack int) Spec {
	warm, measure := o.windows()
	return Spec{
		System:      row.system,
		Groups:      3,
		PerGroup:    perRack,
		WriteRatio:  row.writeRatio,
		EPaxosBatch: row.batch,
		Seed:        o.Seed + 1,
		Warmup:      warm,
		Measure:     measure,
	}
}

// Fig4aResults computes the Figure 4(a) matrix: max throughput per
// system/mix per deployment size.
func Fig4aResults(o *Options) map[string]map[int]Result {
	out := make(map[string]map[int]Result)
	for _, row := range fig4Rows() {
		out[row.label] = make(map[int]Result)
		for _, perRack := range Fig4Sizes {
			spec := fig4Spec(o, row, perRack)
			out[row.label][perRack] = Search{Spec: spec, Start: 100_000, Bisections: o.bisections()}.Max()
		}
	}
	return out
}

// Fig4a prints Figure 4(a): single-DC max throughput vs node count.
func Fig4a(o *Options) {
	fmt.Fprintln(o.Out, "Figure 4(a): single-datacenter throughput (requests/s) vs nodes")
	fmt.Fprintln(o.Out, "3 racks; 10G NICs; 2x10G uplinks; saturation at median > 10ms")
	fmt.Fprintln(o.Out)
	res := Fig4aResults(o)
	tbl := &metrics.Table{Header: []string{"series", "9 nodes", "15 nodes", "21 nodes", "27 nodes"}}
	for _, row := range fig4Rows() {
		cells := []string{row.label}
		for _, perRack := range Fig4Sizes {
			cells = append(cells, metrics.FormatRate(res[row.label][perRack].Throughput))
		}
		tbl.Add(cells...)
	}
	fmt.Fprint(o.Out, tbl.String())
}

// Fig4b prints Figure 4(b): median completion time at 70% of max load.
func Fig4b(o *Options) {
	fmt.Fprintln(o.Out, "Figure 4(b): median request completion time (ms) at 70% of max throughput")
	fmt.Fprintln(o.Out)
	tbl := &metrics.Table{Header: []string{"series", "9 nodes", "15 nodes", "21 nodes", "27 nodes"}}
	for _, row := range fig4Rows() {
		cells := []string{row.label}
		for _, perRack := range Fig4Sizes {
			search := Search{Spec: fig4Spec(o, row, perRack), Start: 100_000, Bisections: o.bisections()}
			at70 := search.At70(search.Max())
			cells = append(cells, ms(at70.Median))
		}
		tbl.Add(cells...)
	}
	fmt.Fprint(o.Out, tbl.String())
}

// Fig5 prints Figure 5: ZooKeeper vs ZKCanopus latency/throughput curves
// at 9 and 27 nodes (ZooKeeper: 5 voting followers, rest observers).
func Fig5(o *Options) {
	fmt.Fprintln(o.Out, "Figure 5: ZooKeeper vs ZKCanopus, 20% writes")
	warm, measure := o.windows()
	for _, perRack := range []int{3, 9} {
		n := perRack * 3
		fmt.Fprintf(o.Out, "\n--- %d nodes ---\n", n)
		for _, sys := range []System{Zab, ZKCanopus} {
			spec := Spec{
				System: sys, Groups: 3, PerGroup: perRack, WriteRatio: 0.2,
				Seed: o.Seed + 1, Warmup: warm, Measure: measure,
			}
			curve := Sweep{Spec: spec, Start: 25_000, Stop: SingleDCThreshold, MaxPoints: 10}.Curve()
			fmt.Fprintf(o.Out, "%s:\n", sys)
			tbl := &metrics.Table{Header: []string{"offered/s", "throughput/s", "median ms"}}
			for _, p := range curve {
				tbl.Add(metrics.FormatRate(p.Offered), metrics.FormatRate(p.Throughput), ms(p.Median))
			}
			fmt.Fprint(o.Out, tbl.String())
		}
	}
}

// fig6Spec builds the paper's multi-DC deployment.
func fig6Spec(o *Options, sys System, dcs int, writeRatio float64) Spec {
	warm, measure := o.wanWindows()
	return Spec{
		System:     sys,
		MultiDC:    true,
		Groups:     dcs,
		PerGroup:   3,
		WriteRatio: writeRatio,
		Seed:       o.Seed + 1,
		Warmup:     warm,
		Measure:    measure,
	}
}

// Fig6 prints Figure 6: multi-datacenter latency/throughput curves for
// 3, 5 and 7 datacenters at 20% writes, with the 1.5×-base-latency knee
// the paper marks with vertical lines.
func Fig6(o *Options) {
	fmt.Fprintln(o.Out, "Figure 6: multi-datacenter deployment, 20% writes, Table 1 latencies")
	for _, dcs := range []int{3, 5, 7} {
		fmt.Fprintf(o.Out, "\n--- %d datacenters (%d nodes) ---\n", dcs, dcs*3)
		for _, sys := range []System{Canopus, EPaxos} {
			spec := fig6Spec(o, sys, dcs, 0.2)
			curve := Sweep{Spec: spec, Start: 50_000, Stop: 4 * MaxRTT(dcs)}.Curve()
			base := curve[0].Median
			knee := Knee(curve, base+base/2)
			fmt.Fprintf(o.Out, "%s (base median %s ms, knee at 1.5x base: %s req/s):\n",
				sys, ms(base), metrics.FormatRate(knee.Throughput))
			tbl := &metrics.Table{Header: []string{"offered/s", "throughput/s", "median ms"}}
			for _, p := range curve {
				tbl.Add(metrics.FormatRate(p.Offered), metrics.FormatRate(p.Throughput), ms(p.Median))
			}
			fmt.Fprint(o.Out, tbl.String())
		}
	}
}

// Fig7 prints Figure 7: write-ratio sweep in the 3-DC deployment.
func Fig7(o *Options) {
	fmt.Fprintln(o.Out, "Figure 7: 3 datacenters, 9 nodes, write-ratio sweep")
	series := []struct {
		label string
		sys   System
		ratio float64
	}{
		{"Canopus 1% writes", Canopus, 0.01},
		{"Canopus 20% writes", Canopus, 0.20},
		{"Canopus 50% writes", Canopus, 0.50},
		{"EPaxos 20% writes", EPaxos, 0.20},
	}
	for _, s := range series {
		spec := fig6Spec(o, s.sys, 3, s.ratio)
		curve := Sweep{Spec: spec, Start: 50_000, Stop: 4 * MaxRTT(3)}.Curve()
		knee := Knee(curve, curve[0].Median+curve[0].Median/2)
		fmt.Fprintf(o.Out, "\n%s (knee: %s req/s):\n", s.label, metrics.FormatRate(knee.Throughput))
		tbl := &metrics.Table{Header: []string{"offered/s", "throughput/s", "median ms"}}
		for _, p := range curve {
			tbl.Add(metrics.FormatRate(p.Offered), metrics.FormatRate(p.Throughput), ms(p.Median))
		}
		fmt.Fprint(o.Out, tbl.String())
	}
}

// Table1 prints the latency matrix the multi-DC experiments use.
func Table1(o *Options) {
	fmt.Fprint(o.Out, FormatTable1())
}
