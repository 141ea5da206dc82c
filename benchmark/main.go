// Command benchmark is the repository's benchmark: it boots in-process
// livecluster deployments on loopback TCP, drives them through the public
// canopus/client from one process, prints every metric as "name value
// unit", checks that the cluster's outputs are correct and exits non-zero
// on any violation. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", fullSeconds, "seconds of timed phases; every phase is shortened by the same factor")
		trace        = flag.Int("trace", 0, "1: the separate traced run that yields the per-layer metrics")
		outDir       = flag.String("out", ".bench_out", "directory for result JSON, trace files and durable workloads' disks")
		compare      = flag.String("compare", "", "compare mode: comma-separated result files of side A; side B's files are the argument")
		benchJSON    = flag.String("bounds", "BENCHMARK.json", "file with the regression bounds -compare uses")
		child        = flag.Bool("child", false, "internal: run the workload in this process (see supervise)")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(2, "usage: benchmark -compare A.json[,A2.json...] B.json[,B2.json...]")
		}
		if err := compareFiles(os.Stdout, *benchJSON, strings.Split(*compare, ","), strings.Split(flag.Arg(0), ",")); err != nil {
			fatal(1, "compare: %v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 4 {
		fatal(2, "-seconds %v: the phases need at least 4 s", *seconds)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}

	if !*child {
		names := []string{*workloadName}
		if *workloadName == "all" {
			names = workloadNames()
		} else if findWorkload(*workloadName) == nil {
			fatal(2, "unknown workload %q (have %s, all)", *workloadName, strings.Join(workloadNames(), ", "))
		}
		supervise(names, *seed, *seconds, *trace, *outDir)
		return
	}

	w := findWorkload(*workloadName)
	if w == nil {
		fatal(2, "unknown workload %q", *workloadName)
	}
	// A cluster that stops answering must fail the run, not hang it: most
	// waits have a timeout of their own, this bounds the rest.
	limit := time.Duration(*seconds*3+90) * time.Second
	time.AfterFunc(limit, func() { fatal(1, "%s: the run did not finish within %v", w.name, limit) })
	var res *result
	var err error
	if *trace != 0 {
		res, err = runTraced(w, *seed, *seconds, *outDir)
	} else {
		res, err = runWorkload(w, *seed, *seconds, *outDir)
	}
	if err != nil {
		// A violation prints no metrics.
		if errors.Is(err, errInvalid) {
			fatal(exitInvalid, "%s: %v", w.name, err)
		}
		fatal(1, "%s: %v", w.name, err)
	}
	if err := writeJSON(filepath.Join(*outDir, resultFile(w.name, *trace != 0)), res); err != nil {
		fatal(1, "%v", err)
	}
	printResult(res)
}

// Exit codes beyond 0 (correct), 1 (a violation, or the run could not be
// made) and 2 (usage; also what the Go runtime exits with on a panic).
const exitInvalid = 3 // the generator did not keep its schedule

func workloadNames() []string {
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
	}
	return names
}

func resultFile(workload string, traced bool) string {
	if traced {
		return "layers-" + workload + ".json"
	}
	return "result-" + workload + ".json"
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func writeJSON(path string, v interface{}) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric as "name value unit" and, as the last
// line, the one-object summary the benchmark driver reads.
func printResult(res *result) {
	fmt.Printf("# workload %s seed %d seconds %g traced %v nproc %d gomaxprocs %d connections %d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.NumCPU, res.GoMaxProcs, res.Conns)
	line := func(m metric) {
		if m.N > 0 {
			fmt.Printf("%s %s %s n=%d\n", m.Name, formatValue(m.Value), m.Unit, m.N)
		} else {
			fmt.Printf("%s %s %s\n", m.Name, formatValue(m.Value), m.Unit)
		}
	}
	for _, m := range res.Info {
		line(m)
	}
	reported := res.EndToEnd
	if res.Traced {
		reported = res.PerLayer
	}
	for _, m := range reported {
		line(m)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]val{}}
	names := driverNames(res.Traced)
	for _, m := range reported {
		if names[m.Name] {
			out.Metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	if len(out.Metrics) != len(names) {
		fatal(1, "%s: the run measured %d of the %d metrics BENCHMARK.json lists", res.Workload, len(out.Metrics), len(names))
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(buf))
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// supervise runs each named workload in a fresh re-exec of this binary,
// so that rss_peak_mb, setup_s and the heap belong to one workload, and
// merges the result files when there are several.
//
// A run that dies of a Go panic, or whose generator could not keep its
// schedule, is repeated once. The panic is not the benchmark's to fix: in
// about one 9-node run in a hundred internal/raftlite indexes past the end
// of a leader's log (termAt from advanceCommit) and takes the process
// down. Without the repeat, a driver that makes 92 runs would lose one
// set of runs in three to it. Both causes are reported on standard error;
// a correctness violation (exit 1) is never repeated.
func supervise(names []string, seed int64, seconds float64, trace int, outDir string) {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	merged := map[string]*result{}
	for _, name := range names {
		for attempt := 1; ; attempt++ {
			cmd := exec.Command(self, "-child",
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			err := cmd.Run()
			if err == nil {
				break
			}
			code := cmd.ProcessState.ExitCode() // -1 when a signal killed it
			if attempt == 2 || code == 1 {
				fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", name, err)
				if code < 1 {
					code = 1
				}
				os.Exit(code)
			}
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: the run ended with %v; repeating it once\n", name, err)
		}
		if len(names) > 1 {
			res, err := readResult(filepath.Join(outDir, resultFile(name, trace != 0)))
			if err != nil {
				fatal(1, "%v", err)
			}
			merged[name] = res
		}
	}
	if len(names) > 1 {
		file := "result.json"
		if trace != 0 {
			file = "layers.json"
		}
		if err := writeJSON(filepath.Join(outDir, file), merged); err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("# all %d workloads correct; wrote %s\n", len(merged), filepath.Join(outDir, file))
	}
}

func readResult(path string) (*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(buf, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}
