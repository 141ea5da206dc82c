// Command canopus-bench regenerates the tables and figures of the
// Canopus paper's evaluation section (§8) on the discrete-event
// simulator. Full runs take tens of minutes (the throughput searches
// simulate many multi-second deployments); -quick trades resolution for
// CI-friendly runtimes.
//
// Usage:
//
//	canopus-bench -exp fig4a            # Figure 4(a)
//	canopus-bench -exp all -quick       # everything, fast
//
// Experiments: table1, fig4a, fig4b, fig5, fig6, fig7 and all, every one
// in virtual time. End-to-end numbers on real sockets come from
// `go run ./benchmark`; the live chaos campaigns run as
// TestLiveChaosCampaigns (internal/harness) and cmd/chaos-smoke.
//
// -cpuprofile / -memprofile capture pprof evidence for performance
// work, e.g.:
//
//	canopus-bench -exp fig4a -quick -cpuprofile fig4a.cpu.pprof
//	go tool pprof -top fig4a.cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"canopus/internal/harness"
	"canopus/internal/pprofutil"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: table1|fig4a|fig4b|fig5|fig6|fig7|all")
	quick := flag.Bool("quick", false, "short windows and coarse search (CI mode)")
	seed := flag.Int64("seed", 1, "simulation seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path (pprof evidence for perf work)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this path on exit")
	flag.Parse()

	stopProfiles, err := pprofutil.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canopus-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	o := harness.NewOptions(
		harness.WithQuick(*quick),
		harness.WithSeed(*seed),
	)
	runs := map[string]func(*harness.Options){
		"table1": harness.Table1,
		"fig4a":  harness.Fig4a,
		"fig4b":  harness.Fig4b,
		"fig5":   harness.Fig5,
		"fig6":   harness.Fig6,
		"fig7":   harness.Fig7,
	}
	order := []string{"table1", "fig4a", "fig4b", "fig5", "fig6", "fig7"}

	start := time.Now()
	switch *exp {
	case "all":
		for _, id := range order {
			fmt.Printf("=== %s ===\n", id)
			runs[id](o)
			fmt.Println()
		}
	default:
		run, ok := runs[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want table1|fig4a|fig4b|fig5|fig6|fig7|all)\n", *exp)
			os.Exit(2)
		}
		run(o)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Second))
}
