package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"canopus/internal/wal"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const conns = 2
	dur := 200 * time.Millisecond
	a := openSchedule(7, "mid", 1, conns, 20000, dur, 0.2)
	b := openSchedule(7, "mid", 1, conns, 20000, dur, 0.2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, phase and connection gave two different schedules")
	}
	for name, other := range map[string][]op{
		"seed":       openSchedule(8, "mid", 1, conns, 20000, dur, 0.2),
		"phase":      openSchedule(7, "hi", 1, conns, 20000, dur, 0.2),
		"connection": openSchedule(7, "mid", 0, conns, 20000, dur, 0.2),
	} {
		if reflect.DeepEqual(a, other) {
			t.Errorf("changing the %s did not change the schedule", name)
		}
	}
	// 20 000 req/s over 2 connections for 0.2 s is 2000 requests each.
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("schedule has %d requests, want about 2000", len(a))
	}
	writes := 0
	for i, o := range a {
		if i > 0 && o.dueNs < a[i-1].dueNs {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if o.dueNs < 0 || o.dueNs >= int64(dur) {
			t.Fatalf("request %d is due at %d ns, outside the phase", i, o.dueNs)
		}
		if int(o.key)%conns != 1 || o.key >= keySpace {
			t.Fatalf("request %d has key %d, which connection 1 of %d does not own", i, o.key, conns)
		}
		if o.write {
			writes++
		}
	}
	if frac := float64(writes) / float64(len(a)); frac < 0.15 || frac > 0.25 {
		t.Errorf("write share %.3f, want about 0.2", frac)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{8, 128} {
		val := make([]byte, size)
		putValue(val, 4242, 17)
		if ctr, ok := valueCounter(val, 4242, size); !ok || ctr != 17 {
			t.Errorf("size %d: read back counter %d ok=%v, want 17", size, ctr, ok)
		}
		if _, ok := valueCounter(val[:size-1], 4242, size); ok {
			t.Errorf("size %d: a truncated value was accepted", size)
		}
	}
	val := make([]byte, 128)
	putValue(val, 4242, 17)
	if _, ok := valueCounter(val, 4243, 128); ok {
		t.Error("a value written for another key was accepted")
	}
}

func TestAttachNodesSparesTheHighestNode(t *testing.T) {
	if got, want := attachNodes(oneLeaf, 2), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("3 nodes, 2 connections: %v, want %v", got, want)
	}
	got := attachNodes(threeLeaves, 8)
	want := []int{0, 3, 6, 1, 4, 7, 2, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("9 nodes, 8 connections: %v, want %v (round-robin over super-leaves)", got, want)
	}
}

func TestPercentileAndTenSamplesBeyond(t *testing.T) {
	xs := make([]int32, 1000)
	for i := range xs {
		xs[i] = int32(i + 1) // 1..1000
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990 (ten samples beyond)", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
	if !supported(1000, 0.99) {
		t.Error("1000 samples have ten beyond the p99")
	}
	if supported(999, 0.99) {
		t.Error("999 samples do not have ten beyond the p99")
	}
	if !supported(20, 0.5) || supported(19, 0.5) {
		t.Error("the median needs 20 samples")
	}
}

func TestSummarizeSlicesHidesOneStall(t *testing.T) {
	// Eight slices of 1000 requests at 1 ms, and one 100 ms stall that
	// hits 150 requests of one slice: 1.9% of the phase.
	var slices [][]int32
	for s := 0; s < 8; s++ {
		us := make([]int32, 1000)
		for i := range us {
			us[i] = 1000
			if s == 4 && i >= 850 {
				us[i] = 100000
			}
		}
		slices = append(slices, us)
	}
	sum := summarizeSlices(slices)
	if sum.n != 8000 || !sum.p99ok {
		t.Fatalf("n %d p99ok %v, want 8000 samples and a supported p99", sum.n, sum.p99ok)
	}
	if sum.p50 != 1 || sum.p99 != 1 {
		t.Errorf("p50 %.3f p99 %.3f ms, want 1 and 1: the median over slices ignores one stall", sum.p50, sum.p99)
	}
	if sum.p99whole != 100 || sum.max != 100 {
		t.Errorf("p99 of all samples %.3f max %.3f ms, want 100 and 100: the stall stays visible", sum.p99whole, sum.max)
	}
	// The p50 is the mean of the slices' medians...
	two := summarizeSlices([][]int32{{1000, 1000, 1000}, {3000, 3000, 3000}})
	if two.p50 != 2 {
		t.Errorf("mean of the medians 1 ms and 3 ms = %.3f ms, want 2", two.p50)
	}
	// ...without the largest and the smallest eighth: of 8 slices, one.
	if got := sliceMean([]float64{2, 1, 2, 300, 2, 2, 2, 2}); got != 2 {
		t.Errorf("sliceMean with one stalled slice of 8 = %v, want 2", got)
	}
	if got := sliceMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("sliceMean of 1,2,3 = %v, want 2 (nothing to trim)", got)
	}
	// Slices too small for a p99 of their own are grouped: 8 slices of
	// 400 make 2 groups of 1600, and a stall in one slice still hides.
	var small [][]int32
	for s := 0; s < 8; s++ {
		us := make([]int32, 400)
		for i := range us {
			us[i] = 1000
			if s == 1 && i >= 300 {
				us[i] = 100000
			}
		}
		small = append(small, us)
	}
	few := summarizeSlices(small)
	if few.p99 != 50.5 || !few.p99ok {
		t.Errorf("8 slices of 400: p99 %.3f ok %v, want 50.5 (the median of a stalled and a clean group), supported", few.p99, few.p99ok)
	}
	if tiny := summarizeSlices([][]int32{{1000, 2000}}); tiny.p99ok {
		t.Error("two samples do not carry a p99")
	}
	if none := summarizeSlices([][]int32{nil, nil}); none.n != 0 || none.p50 != 0 {
		t.Errorf("no samples: %+v, want zeros", none)
	}
}

func TestMaxRateOK(t *testing.T) {
	ok := func(rate float64) rateResult { return rateResult{rate: rate, p99ms: 5, sentFrac: 1} }
	slow := func(rate float64) rateResult { return rateResult{rate: rate, p99ms: 50, sentFrac: 1} }
	cases := []struct {
		name   string
		ladder []rateResult
		want   float64
	}{
		{"all carried", []rateResult{ok(10), ok(20), ok(40)}, 40},
		{"hi too slow", []rateResult{ok(10), ok(20), slow(40)}, 20},
		{"nothing carried", []rateResult{slow(10), slow(20), slow(40)}, 0},
		{"a pass above a miss does not count", []rateResult{ok(10), slow(20), ok(40)}, 10},
		{"a failure misses the limit", []rateResult{ok(10), {rate: 20, p99ms: 5, failed: 1, sentFrac: 1}, ok(40)}, 10},
		{"a growing backlog misses the limit", []rateResult{ok(10), ok(20), {rate: 40, p99ms: 5, growing: true, sentFrac: 1}}, 20},
	}
	for _, c := range cases {
		if got := maxRateOK(c.ladder, 10); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	late := []rateResult{ok(10), {rate: 20, p99ms: 5, sentFrac: 1, lateP99: maxLateP99us}, ok(40)}
	if got := maxRateOK(validRates(late), 10); got != 10 {
		t.Errorf("a rate the generator could not drive counted as carried: %v, want 10", got)
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := []int{40, 42, 38, 41, 39, 40, 43, 37, 40, 41, 39, 42}
	if backlogGrows(steady, 20000) {
		t.Error("a steady in-flight count was called growing")
	}
	growing := []int{40, 60, 90, 130, 180, 240, 310, 390, 480, 580, 690, 810}
	if !backlogGrows(growing, 20000) {
		t.Error("a rising in-flight count was not called growing")
	}
	if backlogGrows([]int{1, 500}, 20000) {
		t.Error("two samples cannot show growth")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{10, 10.1, 9.9, 10, 10}, "lower", verdictWithin},
		{"slightly worse, inside the bound", []float64{10.5, 10.6, 10.4, 10.5, 10.5}, "lower", verdictWithin},
		{"worse than the bound", []float64{11.5, 11.6, 11.4, 11.5, 11.5}, "lower", verdictRegressed},
		{"lower latency", []float64{8, 8.1, 7.9, 8, 8}, "lower", verdictImproved},
		{"lower throughput", []float64{8, 8.1, 7.9, 8, 8}, "higher", verdictRegressed},
		{"higher throughput", []float64{12, 12.1, 11.9, 12, 12}, "higher", verdictImproved},
		{"too noisy to tell", []float64{8, 12, 9, 13, 10}, "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(parent, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
	if got, worse := verdict([]float64{10}, []float64{12}, "lower", 0.10); got != verdictRegressed || math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("one file a side: %q %+.2f, want regressed +0.20", got, worse)
	}
}

func TestCompareFilesReadsBothShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v interface{}) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	res := func(ms float64) *result {
		return &result{Workload: "mixed_3n", EndToEnd: []metric{{Name: "write_p50_ms", Value: ms, Unit: "ms"}}}
	}
	bounds := write("BENCHMARK.json", map[string]interface{}{
		"end_to_end": []bound{{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	})
	a1, a2 := write("a1.json", res(1.0)), write("a2.json", res(1.02))
	same := write("b.json", map[string]*result{"mixed_3n": res(1.01)})
	slow := write("c.json", map[string]*result{"mixed_3n": res(1.5)})

	var out bytes.Buffer
	if err := compareFiles(&out, bounds, []string{a1, a2}, []string{same}); err != nil {
		t.Fatalf("equal sides: %v", err)
	}
	if !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("equal sides not reported within bound:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bounds, []string{a1, a2}, []string{slow}); err == nil {
		t.Error("a 50% slower side B was not an error")
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slower side not reported regressed:\n%s", out.String())
	}
}

// memTruncate cuts a MemFS file by rewriting its prefix.
func memTruncate(fs *wal.MemFS) func(string, int64) error {
	return func(name string, n int64) error {
		data, err := readAll(fs, name)
		if err != nil {
			return err
		}
		f, err := fs.Create(name)
		if err != nil {
			return err
		}
		_, err = f.Write(data[:n])
		return err
	}
}

func readAll(fs wal.FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func TestSyncFSKeepsOnlyWhatWasSynced(t *testing.T) {
	mem := wal.NewMemFS()
	fs := newSyncFS(mem, memTruncate(mem), nil)
	create := func(name string) wal.File {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	log := create("wal-1.log")
	_, err := log.Write([]byte("0123456789"))
	must(err)
	must(log.Sync())
	_, err = log.Write([]byte("abcde")) // never synced

	tmp := create("snap.tmp")
	_, err = tmp.Write([]byte("snapshot"))
	must(err)
	must(tmp.Sync())
	must(fs.Rename("snap.tmp", "snap-1.snap")) // the synced length follows the rename

	unsynced := create("wal-2.log")
	_, err = unsynced.Write([]byte("lost"))
	must(err)

	fs.CutPower()
	if _, err := log.Write([]byte("x")); !errors.Is(err, errPowerCut) {
		t.Errorf("write after the power cut: %v, want errPowerCut", err)
	}
	if err := log.Sync(); !errors.Is(err, errPowerCut) {
		t.Errorf("sync after the power cut: %v, want errPowerCut: it must not be acknowledged", err)
	}
	if _, err := fs.Create("late"); !errors.Is(err, errPowerCut) {
		t.Errorf("create after the power cut: %v, want errPowerCut", err)
	}
	if err := fs.Rename("wal-2.log", "x"); !errors.Is(err, errPowerCut) {
		t.Errorf("rename after the power cut: %v, want errPowerCut", err)
	}

	lost, err := fs.TruncateToSynced()
	must(err)
	if lost != int64(len("abcde")+len("lost")) {
		t.Errorf("discarded %d bytes, want 9", lost)
	}
	for name, want := range map[string]string{"wal-1.log": "0123456789", "snap-1.snap": "snapshot", "wal-2.log": ""} {
		got, err := readAll(mem, name)
		must(err)
		if string(got) != want {
			t.Errorf("%s holds %q after the power cut, want %q", name, got, want)
		}
	}
	// The disk works again for the restart.
	f := create("wal-3.log")
	_, err = f.Write([]byte("again"))
	must(err)
	must(f.Sync())
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound                               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(doc.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		if got, want := doc.EndToEnd[i], (bound{m.name, m.unit, m.better, m.bound}); got != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, want)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, m)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
}
