// Command benchdiff is the CI benchmark drift gate: it compares fresh
// `go test -bench` results against the committed BENCH_baseline.json and
// fails (exit 1) when any shared metric drifts beyond the threshold:
//
//	go test -run=NONE -bench=. -benchtime=1x ./... | benchdiff -baseline BENCH_baseline.json
//
// It parses custom metrics (Mreq/s, median-ms, and the micro-benchmarks'
// per-frame and per-entry counts) from the bench lines. Every gated row
// is deterministic: a virtual-time simulator run or a count that does
// not depend on the machine, so any drift is a behavioural change.
// Benchmarks absent from the baseline are reported but not gated (new
// benchmarks are fine), while baseline entries missing from the run fail
// the gate (a deleted or renamed benchmark means the baseline must be
// regenerated, with -write). Wall-clock end-to-end numbers are not
// gated here; `go run ./benchmark` measures them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchBaseline mirrors BENCH_baseline.json.
type benchBaseline struct {
	Comment    string                        `json:"_comment"`
	GOOS       string                        `json:"goos"`
	GOARCH     string                        `json:"goarch"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// unitMetric maps `go test -bench` custom-metric units to baseline keys.
var unitMetric = map[string]string{
	"Mreq/s":    "mreq_per_s",
	"median-ms": "median_ms",
	// The replication-plane micro-benchmarks (transport BenchmarkRecvBurst,
	// broadcast BenchmarkSequencedBroadcast, wire BenchmarkDecodeSeqAppend)
	// report counts that do not depend on the machine.
	"frames/read":   "frames_per_read",
	"msgs/entry":    "msgs_per_entry",
	"allocs/entry":  "allocs_per_entry",
	"allocs/append": "allocs_per_append",
	// The fixed cost of a consensus cycle (core BenchmarkCycleFixedCost).
	// Arming a timer (transport BenchmarkTimerRearm, allocs/After) is not
	// gated here: its steady state is 0, against which any runtime
	// background allocation is an infinite drift, and the benchmark fails
	// itself above its own ceiling.
	"allocs/cycle":      "allocs_per_cycle",
	"allocs/node-cycle": "allocs_per_node_cycle",
	"msgs/cycle":        "msgs_per_cycle",
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline JSON (required)")
	threshold := flag.Float64("threshold", 0.25, "maximum allowed relative drift per metric")
	only := flag.String("only", "", "regexp: gate only benchmarks whose name matches")
	write := flag.String("write", "", "write a fresh baseline JSON to this path instead of comparing")
	flag.Parse()

	if *baselinePath == "" && *write == "" {
		fatal("benchdiff: -baseline is required (or -write to regenerate one)")
	}
	var filter *regexp.Regexp
	if *only != "" {
		var err error
		if filter, err = regexp.Compile(*only); err != nil {
			fatal("benchdiff: bad -only pattern: %v", err)
		}
	}

	run(*baselinePath, *write, *threshold, filter, flag.Args())
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func readJSON(path string, v interface{}) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal("benchdiff: %v", err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		fatal("benchdiff: parse %s: %v", path, err)
	}
}

// drift is the relative change from old to cur.
func drift(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(cur-old) / math.Abs(old)
}

// benchLine matches one `go test -bench` result line.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts custom metrics (per unitMetric) from bench output.
func parseBench(r io.Reader) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		for i := 0; i+1 < len(rest); i += 2 {
			key, ok := unitMetric[rest[i+1]]
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			if out[name] == nil {
				out[name] = make(map[string]float64)
			}
			out[name][key] = v
		}
	}
	return out
}

func run(baselinePath, writePath string, threshold float64, filter *regexp.Regexp, args []string) {
	in := io.Reader(os.Stdin)
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fatal("benchdiff: %v", err)
		}
		defer f.Close()
		in = f
	} else if len(args) > 1 {
		fatal("benchdiff: at most one input file (or stdin)")
	}
	fresh := parseBench(in)
	if len(fresh) == 0 {
		fatal("benchdiff: no benchmark metrics found in input")
	}

	if writePath != "" {
		writeBaseline(writePath, fresh)
		return
	}

	var base benchBaseline
	readJSON(baselinePath, &base)
	var violations []string
	for _, name := range sortedKeys(base.Benchmarks) {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		want := base.Benchmarks[name]
		got, ok := fresh[name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: in baseline but not in this run (regenerate with -write?)", name))
			continue
		}
		for _, metric := range sortedKeys(want) {
			old := want[metric]
			cur, ok := got[metric]
			if !ok {
				violations = append(violations, fmt.Sprintf("%s %s: metric missing from run", name, metric))
				continue
			}
			d := drift(old, cur)
			status := "ok"
			if d > threshold {
				status = "DRIFT"
				violations = append(violations,
					fmt.Sprintf("%s %s: %.4g -> %.4g (%+.0f%%, limit ±%.0f%%)",
						name, metric, old, cur, 100*(cur-old)/old, 100*threshold))
			}
			fmt.Printf("  %-40s %-12s %10.4g -> %10.4g  %5.1f%%  %s\n", name, metric, old, cur, 100*d, status)
		}
	}
	for name := range fresh {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("  %-40s (not in baseline; not gated)\n", name)
		}
	}
	report(violations, baselinePath)
}

func writeBaseline(path string, fresh map[string]map[string]float64) {
	doc := benchBaseline{
		Comment: "Snapshot of `go test -run=NONE -bench=. -benchtime=1x ./...` custom metrics (Mreq/s and median-ms), " +
			"regenerated by `benchdiff -write`. Single-iteration virtual-time runs are deterministic per seed, so " +
			"CI (cmd/benchdiff) fails on drift beyond its threshold: drift indicates a real behavioral change, not noise.",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: fresh,
	}
	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal("benchdiff: %v", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal("benchdiff: %v", err)
	}
	fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", path, len(fresh))
}

func report(violations []string, baselinePath string) {
	if len(violations) == 0 {
		fmt.Printf("benchdiff: OK (within threshold of %s)\n", baselinePath)
		return
	}
	fmt.Printf("benchdiff: %d metric(s) drifted beyond threshold:\n", len(violations))
	for _, v := range violations {
		fmt.Println("  " + v)
	}
	os.Exit(1)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
