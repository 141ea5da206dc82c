package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// readResults reads result files, each either one workload's result or
// the merged map that -workload all writes, into workload -> metric ->
// values.
func readResults(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	add := func(res *result) {
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for _, m := range res.EndToEnd {
			out[res.Workload][m.Name] = append(out[res.Workload][m.Name], m.Value)
		}
	}
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var one result
		if err := json.Unmarshal(buf, &one); err == nil && one.Workload != "" {
			add(&one)
			continue
		}
		var merged map[string]*result
		if err := json.Unmarshal(buf, &merged); err != nil {
			return nil, fmt.Errorf("%s: neither a result nor a merged result file: %w", path, err)
		}
		for _, res := range merged {
			add(res)
		}
	}
	return out, nil
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method). A
// single value is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Verdicts of one workload x metric row.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares side B (the change) with side A (the parent) on one
// metric. The spread of a side is the distance between its quartiles as a
// share of its median. A spread wider than the bound leaves the row
// unresolved: the runs cannot tell a regression of that size from noise.
// Otherwise B regressed if its median is worse than A's by more than the
// bound, improved if it is better by more than either side's quartile
// distance, and is within bound if neither. "Improved" here is a hint: a
// claimed gain needs the ten alternating pairs the metrics guide asks for.
func verdict(a, b []float64, better string, bnd float64) (string, float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	change := (bmed - amed) / math.Abs(amed) // > 0: B is larger
	worse := change
	if better == "higher" {
		worse = -change
	}
	spreadA, spreadB := (aq3-aq1)/math.Abs(amed), (bq3-bq1)/math.Abs(bmed)
	switch {
	case spreadA > bnd || spreadB > bnd:
		return verdictUnresolved, worse
	case worse > bnd:
		return verdictRegressed, worse
	case worse < 0 && math.Abs(bmed-amed) > math.Max(aq3-aq1, bq3-bq1):
		return verdictImproved, worse
	default:
		return verdictWithin, worse
	}
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(out io.Writer, boundsPath string, aPaths, bPaths []string) error {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return err
	}
	a, err := readResults(aPaths)
	if err != nil {
		return err
	}
	b, err := readResults(bPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-11s %-22s %-6s %30s %30s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound", "verdict")
	regressed := 0
	for i := range workloads {
		name := workloads[i].name
		for _, bd := range bounds {
			av, bv := a[name][bd.Name], b[name][bd.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, worse := verdict(av, bv, bd.Better, bd.Bound)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(out, "%-11s %-22s %-6s %30s %30s %+7.1f%% %5.0f%%  %s\n",
				name, bd.Name, bd.Unit, side(av), side(bv), worse*100, bd.Bound*100, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func side(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", med, q1, q3, len(xs))
}
