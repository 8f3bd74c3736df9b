package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/netsim"
)

func TestQuartiles(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, 3.5, 24, 160},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// spin burns CPU in a function the profile test can find by name.
//
//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestProfileDecode(t *testing.T) {
	prof, err := profileCPU(func() error {
		spin(300 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.total == 0 {
		t.Skip("the profiler delivered no samples on this machine")
	}
	if got := prof.share(func(fn string) bool { return strings.HasSuffix(fn, "/benchmarks.spin") || fn == "main.spin" }); got < 0.5 {
		t.Errorf("spin has %.2f of the CPU time, want most of it; functions: %v", got, prof.byFunc)
	}
	var sum float64
	for _, v := range prof.shares() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dtdctcp/internal/sim.(*eventHeap).down":         "sim",
		"dtdctcp/internal/netsim.newPort.func1":          "netsim",
		"dtdctcp/internal/runner.Map[...]":               "other", // no runner.cpu_share metric
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"math.Sqrt":                                      "other",
		"dtdctcp/benchmarks.rungChain.func1":             "other",
		"dtdctcp/internal/fluid.(*Stepper).Step":         "fluid",
		"dtdctcp/internal/sim.(*ShardedEngine).RunUntil": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if !isEventHeap("dtdctcp/internal/sim.(*eventHeap).less") || isEventHeap("dtdctcp/internal/sim.(*Engine).run") {
		t.Error("isEventHeap misclassifies")
	}
	if !isShardSync("runtime.futex") || !isShardSync("dtdctcp/internal/sim.(*shardWorkers).dispatch") || isShardSync("runtime.mallocgc") {
		t.Error("isShardSync misclassifies")
	}
}

// TestDeclaration holds BENCHMARK.json to the tables in spec.go and the
// tables to the driver's limits.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := declaration(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date with spec.go; run `go run ./benchmarks -update`\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(s spec) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("bad metric declaration %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		check(s)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	for _, s := range perLayer {
		check(s)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("bad workload declaration %q: %q", w.name, w.why)
		}
	}
}

// TestQuickLedger runs every workload at quick size, untraced and
// traced, and checks what the driver and the ledger's readers rely on.
func TestQuickLedger(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, specs := range [][]spec{endToEnd, perLayer} {
			opt := options{workload: w.name, seed: 7, trace: trace, quick: true, dir: dir, start: time.Now()}
			rp, err := runWorkload(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !rp.Correct || rp.Failed != 0 || rp.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d notes=%v", w.name, trace, rp.Correct, rp.Failed, rp.Attempted, rp.Notes)
			}
			if len(rp.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(rp.Metrics), len(specs))
			}
			var shares float64
			for _, s := range specs {
				st, ok := rp.Metrics[s.Name]
				if !ok || st.Unit != s.Unit || !finite(st.Value) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want a finite value in %s", w.name, trace, s.Name, st, ok, s.Unit)
				}
				if trace == 0 && s.Name != "cpu_s" && st.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.Name, st.Value)
				}
				if strings.HasSuffix(s.Name, ".cpu_share") && s.Name != "sim.heap_cpu_share" && s.Name != "sim.shard_sync_cpu_share" {
					shares += st.Value
				}
			}
			// A quick repetition can end before the profiler's first tick.
			if trace == 1 && shares != 0 && math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v, want 1", w.name, shares)
			}
			if trace == 1 && rp.Metrics["core.digest_match"].Value != 1 {
				t.Errorf("%s: core.digest_match = %v, want 1", w.name, rp.Metrics["core.digest_match"].Value)
			}

			// The last line of output is the driver's result object.
			var buf bytes.Buffer
			if err := printReport(&buf, rp); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: result line has keys %v", w.name, line)
			}
			var printed map[string]valueUnit
			if err := json.Unmarshal(line["metrics"], &printed); err != nil || len(printed) != len(specs) {
				t.Errorf("%s: result line carries %d metrics (err %v), want %d", w.name, len(printed), err, len(specs))
			}
		}
		if _, err := os.Stat(dir + "/out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}

// TestTallyCatchesDivergence: a repetition that does something else
// than the first counts all its operations failed.
func TestTallyCatchesDivergence(t *testing.T) {
	var tl tally
	tl.add("a", outcome{digest: "x", attempted: 10, counts: map[string]uint64{"events": 5}})
	tl.add("b", outcome{digest: "x", attempted: 10, failed: 1})
	if tl.failed != 1 || tl.mismatch {
		t.Fatalf("failed=%d mismatch=%v, want 1 false", tl.failed, tl.mismatch)
	}
	tl.add("c", outcome{digest: "y", attempted: 10})
	if tl.failed != 11 || !tl.mismatch {
		t.Errorf("failed=%d mismatch=%v, want 11 true", tl.failed, tl.mismatch)
	}
	tl.expect(expectation{Digest: "x", Counts: map[string]uint64{"events": 6}})
	if tl.failed != tl.attempted {
		t.Errorf("failed=%d, want all %d after an expected.json mismatch", tl.failed, tl.attempted)
	}
}

// TestFabricMirrorDigest: the mirror composed from the layers' public
// builders does exactly what core.RunFabric does.
func TestFabricMirrorDigest(t *testing.T) {
	cdf, err := flowgen.BuiltinCDF("websearch-small")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.FabricConfig{
		Protocol: core.DCTCP(20, 1.0/16), Topology: "fattree", K: 4, Rate: netsim.Gbps, HopDelay: 10 * time.Microsecond,
		BufferPkts: 100, CDF: cdf, Load: 0.6, Flows: 150, Seed: 3,
	}
	res, err := core.RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("fabric_k4", time.Now())
	m, err := fabricMirror(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fabricDigest(res.Digest, res.Marks, res.Drops, res.Timeouts, res.Retransmissions, res.Completed); m.digest != want {
		t.Errorf("mirror digest %s, RunFabric's %s", m.digest, want)
	}
	for _, name := range []string{"mirror", "topo.FatTree", "flowgen.Start", "Engine.RunUntil", "collect"} {
		if tr.seconds(name) <= 0 {
			t.Errorf("span %s missing or empty", name)
		}
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != 0 {
			t.Errorf("span %s has parent %d, want the mirror span", s.Name, s.Parent)
		}
	}
}
