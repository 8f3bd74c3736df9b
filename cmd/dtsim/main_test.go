package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dtdctcp"
)

// short is a dumbbell small enough to run many times per test.
var short = []string{"dumbbell", "-flows", "2", "-duration", "3ms", "-warmup", "1ms"}

func TestRunDefaultsQuick(t *testing.T) {
	err := run([]string{"dumbbell", "-flows", "2", "-duration", "5ms", "-warmup", "1ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range presetNames() {
		if err := run(append(short, "-protocol", p), io.Discard); err != nil {
			t.Fatalf("protocol %s: %v", p, err)
		}
	}
}

// TestProtocolTableMatchesConstructors: each name builds what its
// constructor builds from the same flags.
func TestProtocolTableMatchesConstructors(t *testing.T) {
	o := &opts{k: 21, k1: 16, k2: 26, g: 1.0 / 8, gamma: 0.9, rate: 2.5}
	want := map[string]dtdctcp.Protocol{
		"dctcp":    dtdctcp.DCTCP(21, 1.0/8),
		"dt-dctcp": dtdctcp.DTDCTCP(16, 26, 1.0/8),
		"dctcp+":   dtdctcp.DCTCPPlus(21, 1.0/8),
		"hull":     dtdctcp.HULL(21, 0.9, 2500*dtdctcp.Mbps, 1.0/8),
		"reno":     dtdctcp.Reno(),
		"reno-ecn": dtdctcp.RenoECN(21),
	}
	if len(want) != len(presets) {
		t.Fatalf("table has %d presets, test knows %d", len(presets), len(want))
	}
	for _, p := range presets {
		got, w := p.build(o), want[p.name]
		if got != w {
			t.Errorf("%s builds %+v, want %+v", p.name, got, w)
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	for _, sub := range []string{"dumbbell", "fabric", "stability"} {
		err := run([]string{sub, "-protocol", "dctcp,bbr"}, io.Discard)
		if err == nil {
			t.Fatalf("%s: unknown protocol accepted", sub)
		}
		for _, name := range presetNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not list %s", sub, err, name)
			}
		}
	}
}

// TestOneProtocolRefusesList: a subcommand that runs one protocol says so
// rather than running the first of a list.
func TestOneProtocolRefusesList(t *testing.T) {
	for _, sub := range []string{"dumbbell", "hybrid", "stability", "fluid"} {
		err := run([]string{sub, "-protocol", "dctcp,dt-dctcp"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "runs one protocol") {
			t.Errorf("%s: %v", sub, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		nil, {"-flows", "2"}, {"simulate"}, {"dumbbell", "extra"},
		{"dumbbell", "-nonsense"}, {"fabric", "-shards", "2"}, {"fabric", "-K", "20"},
		{"hybrid", "-proto", "dctcp"}, {"stability", "-dt"}, {"fluid", "-n", "10"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRunRejectsBadFlags: values each subcommand refuses; fabric's and
// hybrid's are TestFabricRejectsBadFlags and TestHybridRejectsBadFlags.
func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"stability no DF": {"stability", "-protocol", "hull"},
		"fluid no law":    {"fluid", "-protocol", "reno"},
		"fluid capacity":  {"fluid", "-c", "NaN"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunInvalidConfigSurfacesError(t *testing.T) {
	if err := run([]string{"dumbbell", "-flows", "0"}, io.Discard); err == nil {
		t.Fatal("flows=0 accepted")
	}
}

func TestRunWritesCSVAndTrace(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "queue.csv")
	jsonl := filepath.Join(dir, "trace.jsonl")
	if err := run(append(short, "-csv", csv, "-trace", jsonl), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,queue\n") {
		t.Fatalf("csv header: %q", string(data[:20]))
	}
	tr, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"kind":"enqueue"`) {
		t.Fatal("trace has no enqueue events")
	}
}

func TestRunCSVBadPath(t *testing.T) {
	if err := run(append(short, "-csv", "/nonexistent-dir/x.csv"), io.Discard); err == nil {
		t.Fatal("unwritable csv path accepted")
	}
}

func TestRunMetricsPlotAndProfiles(t *testing.T) {
	dir := t.TempDir()
	mjson := filepath.Join(dir, "m.json")
	mprom := filepath.Join(dir, "m.prom")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	err := run(append(short, "-plot",
		"-metrics", mjson, "-metrics-prom", mprom,
		"-cpuprofile", cpu, "-memprofile", mem), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{mjson, mprom, cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("output %s missing or empty: %v", path, err)
		}
	}
	if !strings.Contains(out.String(), "metrics written to") {
		t.Fatal("missing metrics confirmation line")
	}
	if !strings.Contains(out.String(), "utilization") {
		t.Fatal("missing summary")
	}
	for _, sub := range []string{"fabric", "hybrid"} {
		cpu, mem := filepath.Join(dir, sub+"-cpu.pprof"), filepath.Join(dir, sub+"-mem.pprof")
		if err := run([]string{sub, "-quick", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty: %v", sub, path, err)
			}
		}
	}
}

// TestCPUProfileCloseErrorFails: a CPU profile that fails to close is the
// run's error, not a silent exit 0.
func TestCPUProfileCloseErrorFails(t *testing.T) {
	failed := errors.New("close failed")
	defer func(orig func(string, string, func() error) error) { profile = orig }(profile)
	ran := false
	profile = func(cpu, _ string, fn func() error) error {
		if cpu != "cpu.pprof" {
			t.Errorf("cpu profile path = %q, want cpu.pprof", cpu)
		}
		if err := fn(); err != nil {
			return err
		}
		ran = true
		return failed
	}
	if err := run(append(short, "-cpuprofile", "cpu.pprof"), io.Discard); !errors.Is(err, failed) {
		t.Fatalf("run = %v, want the close error", err)
	}
	if !ran {
		t.Fatal("run did not go ahead inside its profile")
	}
}

func TestRunMetricsSampler(t *testing.T) {
	mjson := filepath.Join(t.TempDir(), "m.json")
	if err := run(append(short, "-metrics", mjson, "-metrics-sample", "1ms"), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mjson)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"series"`) {
		t.Fatal("sampled snapshot has no series")
	}
}

// TestRunBadOutputPaths: every file a subcommand writes reports its
// error, so an unwritable path exits non-zero instead of writing nothing.
// TestStabilityLocusBadPath and TestFluidCSVBadPath cover -locus and fluid's
// -csv.
func TestRunBadOutputPaths(t *testing.T) {
	const bad = "/nonexistent-dir/out"
	cases := [][]string{
		append(short, "-trace", bad),
		append(short, "-metrics", bad),
		append(short, "-metrics-prom", bad),
	}
	for _, c := range subcommands {
		for _, profile := range []string{"memprofile", "cpuprofile"} {
			if slices.Contains(strings.Fields(c.flags), profile) {
				cases = append(cases, []string{c.name, "-quick", "-" + profile, bad})
			}
		}
	}
	for _, args := range cases {
		// The error must name the path: a flag-parse error would not.
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%v: unwritable path not reported: %v", args, err)
		}
	}
}

// TestQuickMatchesCoreRunner: each subcommand at -quick returns what the
// core runner returns for the configuration -quick documents, which holds
// the flag → config mapping.
func TestQuickMatchesCoreRunner(t *testing.T) {
	dctcp := dtdctcp.DCTCP(40, 1.0/16)

	t.Run("dumbbell", func(t *testing.T) {
		res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
			Protocol: dctcp, Flows: 4, Rate: 10 * dtdctcp.Gbps, RTT: 100 * time.Microsecond,
			BufferPkts: 600, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
			Seed: 1, AlphaSampleEvery: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		printDumbbell(&want, res)
		if err := run([]string{"dumbbell", "-quick"}, &got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("dumbbell -quick printed\n%s\nthe core runner gives\n%s", &got, &want)
		}
	})

	t.Run("fabric", func(t *testing.T) {
		cdf, err := dtdctcp.BuiltinFlowCDF("websearch-small")
		if err != nil {
			t.Fatal(err)
		}
		var want []*dtdctcp.FabricResult
		for _, p := range []dtdctcp.Protocol{dtdctcp.DCTCP(20, 1.0/16), dtdctcp.DTDCTCP(15, 25, 1.0/16)} {
			res, err := dtdctcp.RunFabric(dtdctcp.FabricConfig{
				Protocol: p, Topology: "leafspine", K: 4, Leaves: 2, Spines: 2, HostsPerLeaf: 2,
				Rate: dtdctcp.Gbps, HopDelay: 10 * time.Microsecond, BufferPkts: 100,
				CDF: cdf, Load: 0.4, Flows: 80, SmallMax: 100_000, LargeMin: 1_000_000, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		var snap fabricSnapshot
		runJSON(t, &snap, "fabric", "-quick")
		sameJSON(t, snap.Results, want)
	})

	t.Run("hybrid", func(t *testing.T) {
		p := dctcp
		p.TCP.RTOMin, p.TCP.RTOInitial = 10*time.Millisecond, 10*time.Millisecond
		cfg := dtdctcp.HybridConfig{
			Protocol: p, BgFlows: 50, FgFlows: 4, FgBytes: 20_000, FgGap: 500 * time.Microsecond,
			Rate: 10 * dtdctcp.Gbps, RTT: 100 * time.Microsecond, BufferPkts: 600,
			Duration: 10 * time.Millisecond, Warmup: 5 * time.Millisecond,
			QueueSampleEvery: 20 * time.Microsecond, Seed: 1,
		}
		hyb, err := dtdctcp.RunHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FullPacket = true
		pkt, err := dtdctcp.RunHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var snap hybridSnapshot
		runJSON(t, &snap, "hybrid", "-quick")
		sameJSON(t, []*dtdctcp.HybridResult{snap.Hybrid, snap.Packet}, []*dtdctcp.HybridResult{hyb, pkt})
	})

	t.Run("stability", func(t *testing.T) {
		onset, err := dtdctcp.CriticalFlows(dctcp, dtdctcp.PaperAnalysisParams(), 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run([]string{"stability", "-quick", "-critical"}, &got); err != nil {
			t.Fatal(err)
		}
		if want := "dctcp(K=40): oscillation onset at N = " + strconv.Itoa(onset) + "\n"; got.String() != want {
			t.Fatalf("stability -quick -critical printed %q, want %q", &got, want)
		}
	})

	t.Run("fluid", func(t *testing.T) {
		cfg, err := dtdctcp.FluidConfig(dctcp,
			dtdctcp.AnalysisParams{CapacityPktsPerSec: 10e9 / 8 / 1500, RTT: 1e-4, G: 1.0 / 16}, 10, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dtdctcp.SolveFluid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := res.Queue.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		csv := filepath.Join(t.TempDir(), "fluid.csv")
		if err := run([]string{"fluid", "-quick", "-csv", csv}, io.Discard); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(csv); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("fluid -quick trajectory differs from the core solver's (%v)", err)
		}
	})
}

// runJSON runs a subcommand that reports JSON on stdout and decodes it.
// TestReportKeys pins the key set of every result in the -quick fabric
// and hybrid reports. The counters every runner shares arrive flattened
// from the embedded core.Outcome; a key leaves a report, or joins it, only
// by an edit to this table.
func TestReportKeys(t *testing.T) {
	outcome := []string{"events", "marks", "drops", "host_drops",
		"dropped_no_flow", "timeouts", "retransmissions"}
	fabric := append([]string{"protocol", "topology", "hosts", "load", "flows", "completed", "fct",
		"digest", "core_queue", "agg_queue", "mark_rate", "drop_rate", "out_of_order",
		"late_duplicates"}, outcome...)
	hybrid := append([]string{"protocol", "mode", "bg_flows", "fg_flows", "queue_mean_pkts",
		"queue_std_pkts", "queue_min_pkts", "queue_max_pkts", "osc_period_ns", "osc_confidence",
		"fluid_final", "coupler_ticks", "fg_transfers", "fg_fct_count", "fg_fct_mean_sec",
		"fg_fct_p99_sec", "digest"}, outcome...)
	type result = map[string]json.RawMessage
	var fab struct{ Results []result }
	var hyb struct{ Hybrid, Packet result }
	runJSON(t, &fab, "fabric", "-quick")
	runJSON(t, &hyb, "hybrid", "-quick")
	for _, c := range []struct {
		name    string
		results []result
		want    []string
	}{
		{"fabric", fab.Results, fabric},
		{"hybrid", []result{hyb.Hybrid, hyb.Packet}, hybrid},
	} {
		if len(c.results) != 2 {
			t.Fatalf("%s: want two results, got %d", c.name, len(c.results))
		}
		slices.Sort(c.want)
		for i, res := range c.results {
			var got []string
			for k := range res {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s result %d keys:\n got %v\nwant %v", c.name, i, got, c.want)
			}
		}
	}
}

func runJSON(t *testing.T, into any, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), into); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func sameJSON(t *testing.T, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("results differ from the core runner's:\n%s\n%s", g, w)
	}
}
