package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64 // how long a run measures; 0 picks the mode's default
	trace    int
	quick    bool
	update   bool
	aa       bool
	// dir is the benchmark's own directory: expected.json is read from
	// it and results and traces are written to dir/out.
	dir string
	// start is when the process began, for the first set-up sample.
	start time.Time
}

// report is one child's result: one workload, traced or not.
type report struct {
	Manifest  manifest          `json:"manifest"`
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"`
	Counts    map[string]uint64 `json:"counts"`
	Metrics   map[string]stat   `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// expectation is a workload's entry in expected.json: what seed 1
// produces at full size on amd64.
type expectation struct {
	Digest string            `json:"digest"`
	Counts map[string]uint64 `json:"counts"`
}

// tally checks repetitions against each other as they finish. A
// repetition whose digest differs from the first one's counts all its
// operations failed: the simulator is deterministic, so a difference
// means a run did something else than what is being timed.
type tally struct {
	digest            string
	counts            map[string]uint64
	attempted, failed int
	mismatch          bool
	notes             []string
}

func (t *tally) add(label string, out outcome) {
	if t.digest == "" {
		t.digest, t.counts = out.digest, out.counts
	}
	t.attempted += out.attempted
	switch {
	case out.digest != t.digest:
		t.mismatch = true
		t.failed += out.attempted
		t.notes = append(t.notes, fmt.Sprintf("%s: digest %s differs from the first repetition's %s", label, out.digest, t.digest))
	case out.failed > 0:
		t.failed += out.failed
		t.notes = append(t.notes, fmt.Sprintf("%s: %d of %d operations failed", label, out.failed, out.attempted))
	}
}

// expect holds the run to the committed digests and counts.
func (t *tally) expect(want expectation) {
	ok := t.digest == want.Digest
	for k, v := range want.Counts {
		ok = ok && t.counts[k] == v
	}
	if !ok {
		t.mismatch = true
		t.failed = t.attempted
		t.notes = append(t.notes, fmt.Sprintf("digest %s counts %v differ from expected.json's %s %v", t.digest, t.counts, want.Digest, want.Counts))
	}
}

// runWorkload measures one workload in this process and writes its
// result (and, traced, its spans) under dir/out.
func runWorkload(opt options) (*report, error) {
	wl, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		opt.seconds = runSeconds
	}
	// One process, at most two busy goroutines: the two parallel
	// workloads get their two threads and nothing gets more.
	runtime.GOMAXPROCS(2)

	rp := &report{Manifest: newManifest(opt.seed, opt.quick, opt.start), Workload: wl.name, Trace: opt.trace}
	var t tally
	var err error
	var tr *tracer
	if opt.trace == 0 {
		rp.Metrics, rp.Manifest.Repetitions, err = endToEndPass(opt, wl, &t)
	} else {
		tr = newTracer(wl.name, opt.start)
		rp.Metrics, err = tracedPass(opt, wl, &t, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}

	// Only seed 1 at full size has committed results, and float results
	// are only bit-stable across one architecture.
	if !opt.quick && !opt.update && opt.seed == 1 && runtime.GOARCH == "amd64" {
		want, err := readExpected(opt.dir)
		if err != nil {
			return nil, err
		}
		e, ok := want[wl.name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no entry for %s; run with -update", wl.name)
		}
		t.expect(e)
	}
	rp.Correct = t.failed == 0
	rp.Attempted, rp.Failed = t.attempted, t.failed
	rp.Digest, rp.Counts, rp.Notes = t.digest, t.counts, t.notes
	rp.Manifest.TotalWallS = time.Since(opt.start).Seconds()

	out := filepath.Join(opt.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(resultPath(opt.dir, wl.name, opt.trace), rp); err != nil {
		return nil, err
	}
	if tr != nil {
		err = writeJSON(filepath.Join(out, "trace-"+wl.name+".json"), struct {
			Manifest manifest `json:"manifest"`
			Spans    []span   `json:"spans"`
		}{rp.Manifest, tr.spans})
	}
	return rp, err
}

func resultPath(dir, workload string, trace int) string {
	return filepath.Join(dir, "out", fmt.Sprintf("result-%s-trace%d.json", workload, trace))
}

func readExpected(dir string) (map[string]expectation, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		return nil, err
	}
	var want map[string]expectation
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return want, nil
}

// repetitions is how many timed repetitions fit the run's measuring
// time, given what one took. Never fewer than three: a median needs
// them, whatever the clock says.
func repetitions(opt options, one float64) int {
	if opt.quick {
		return 2
	}
	return min(max(int(opt.seconds/one), 3), 9)
}

// endToEndPass measures the workload with nothing observing it. It sets
// up three times — inputs from the seed, then one untimed full-size
// repetition that fills caches, pools and the heap; the first also
// counts the process's own start — and then times repetitions.
func endToEndPass(opt options, wl workload, t *tally) (map[string]stat, int, error) {
	setups := 3
	if opt.quick {
		setups = 1
	}
	var (
		sc     *scenario
		warm   timing
		setupS []float64
	)
	t0 := opt.start
	for i := 0; i < setups; i++ {
		if i > 0 {
			t0 = time.Now()
		}
		var err error
		if sc, err = wl.prepare(opt.seed, opt.quick); err != nil {
			return nil, 0, err
		}
		if warm, err = measure(func() (outcome, error) { return sc.rep(runOpts{}) }); err != nil {
			return nil, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		t.add(fmt.Sprintf("set-up %d", i), warm.out)
	}

	n := repetitions(opt, warm.wall)
	var wall, cpu, alloc []float64
	for i := 0; i < n; i++ {
		r, err := measure(func() (outcome, error) { return sc.rep(runOpts{}) })
		if err != nil {
			return nil, 0, err
		}
		t.add(fmt.Sprintf("repetition %d", i), r.out)
		wall, cpu, alloc = append(wall, r.wall), append(cpu, r.cpu), append(alloc, r.allocMB)
	}
	return map[string]stat{
		"wall_s":      newStat("s", wall...),
		"cpu_s":       newStat("s", cpu...),
		"setup_s":     newStat("s", setupS...),
		"peak_rss_mb": newStat("MB", peakRSSMB()),
		"alloc_mb":    newStat("MB", alloc...),
	}, n, nil
}

// tracedPass takes the per-layer numbers: untraced base repetitions for
// reference, one repetition with the repo's registry on, one under the
// CPU profiler with spans, and the workload's reference runs.
func tracedPass(opt options, wl workload, t *tally, tr *tracer) (map[string]stat, error) {
	done := tr.span("setup")
	sc, err := wl.prepare(opt.seed, opt.quick)
	if err != nil {
		return nil, err
	}
	warm, err := measure(func() (outcome, error) { return sc.rep(runOpts{}) })
	done()
	if err != nil {
		return nil, err
	}
	t.add("set-up", warm.out)

	nBase := 3
	if opt.quick {
		nBase = 1
	}
	bases := make([]timing, nBase)
	for i := range bases {
		done := tr.span("base")
		bases[i], err = measure(func() (outcome, error) { return sc.rep(runOpts{}) })
		done()
		if err != nil {
			return nil, err
		}
		t.add(fmt.Sprintf("base %d", i), bases[i].out)
	}
	pick := func(f func(timing) float64) []float64 {
		xs := make([]float64, len(bases))
		for i, b := range bases {
			xs[i] = f(b)
		}
		return xs
	}
	base := timing{
		wall: median(pick(func(r timing) float64 { return r.wall })),
		cpu:  median(pick(func(r timing) float64 { return r.cpu })),
		out:  bases[0].out,
	}

	done = tr.span("metrics")
	withMetrics, err := measure(func() (outcome, error) { return sc.rep(runOpts{metrics: true}) })
	done()
	if err != nil {
		return nil, err
	}
	t.add("metrics", withMetrics.out)

	var traced timing
	prof, err := profileCPU(func() error {
		defer tr.span("traced")()
		var err error
		traced, err = measure(func() (outcome, error) { return sc.rep(runOpts{tr: tr}) })
		return err
	})
	if err != nil {
		return nil, err
	}
	t.add("traced", traced.out)

	layer := map[string]float64{}
	// Rung timings and result fields: the median over the base
	// repetitions (exact values are their own median).
	for k := range base.out.layer {
		layer[k] = median(pick(func(r timing) float64 { return r.out.layer[k] }))
	}
	withMetrics.out.reg.fill(layer)

	events := float64(base.out.counts["events"])
	layer["sim.events"] = events
	if events > 0 {
		layer["sim.events_per_s"] = events / base.wall
		layer["sim.ns_per_event"] = base.wall * 1e9 / events
	}
	layer["tcp.rto"] = float64(base.out.counts["rto"])
	for name, share := range prof.shares() {
		layer[name+".cpu_share"] = share
	}
	layer["sim.heap_cpu_share"] = prof.share(isEventHeap)
	if sc.sharded {
		layer["sim.shard_sync_cpu_share"] = prof.share(isShardSync)
	}
	layer["metrics.tax_pct"] = pct(withMetrics.wall, base.wall)
	layer["trace.overhead_pct"] = pct(traced.wall, base.wall)
	layer["runtime.mallocs"] = median(pick(func(r timing) float64 { return r.mallocs }))
	layer["runtime.gc_cycles"] = median(pick(func(r timing) float64 { return r.gcCycles }))
	layer["runtime.gc_pause_ms"] = median(pick(func(r timing) float64 { return r.gcPauseMs }))

	if sc.refs != nil {
		done := tr.span("refs")
		refs, err := sc.refs(tr, base)
		done()
		if err != nil {
			return nil, err
		}
		for k, v := range refs {
			layer[k] = v
		}
		if match, ok := refs["core.digest_match"]; ok && match != 1 {
			t.mismatch = true
			t.failed = t.attempted
			t.notes = append(t.notes, "the reference run's digest differs from the repetition's")
		}
	}
	layer["core.digest_match"] = boolMetric(!t.mismatch)

	out := map[string]stat{}
	for _, s := range perLayer {
		v := layer[s.Name]
		if !finite(v) {
			return nil, fmt.Errorf("%s is %v", s.Name, v)
		}
		out[s.Name] = stat{Value: v, Unit: s.Unit, Q1: v, Q3: v, N: 1}
	}
	for k := range layer {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", k)
		}
	}
	return out, nil
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable rows and then the result line.
func printReport(w io.Writer, rp *report) error {
	m := rp.Manifest
	fmt.Fprintf(w, "# %s seed=%d trace=%d quick=%v reps=%d  %s %s/%s cpus=%d gomaxprocs=%d  %s  rev=%s\n",
		rp.Workload, m.Seed, rp.Trace, m.Quick, m.Repetitions, m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.VCSRevision)
	if m.Undersubscribed {
		fmt.Fprintln(w, "# fewer than 2 CPUs: fabric_k4_shards2 and sweep_w2 measure time-slicing, not parallelism")
	}
	specs := endToEnd
	if rp.Trace != 0 {
		specs = perLayer
	}
	line := resultLine{Correct: rp.Correct, Attempted: rp.Attempted, Failed: rp.Failed, Metrics: map[string]valueUnit{}}
	for _, s := range specs {
		st := rp.Metrics[s.Name]
		fmt.Fprintf(w, "%-28s %14.6g %-5s", s.Name, st.Value, st.Unit)
		if st.N > 1 {
			fmt.Fprintf(w, "  q1=%.6g q3=%.6g n=%d", st.Q1, st.Q3, st.N)
		}
		fmt.Fprintln(w)
		line.Metrics[s.Name] = valueUnit{st.Value, st.Unit}
	}
	fmt.Fprintf(w, "%-28s %14.6g %-5s  (%d failed of %d attempted)\n", "failed_ratio", float64(rp.Failed)/float64(rp.Attempted), "ratio", rp.Failed, rp.Attempted)
	keys := make([]string, 0, len(rp.Counts))
	for k := range rp.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var counts []string
	for _, k := range keys {
		counts = append(counts, fmt.Sprintf("%s=%d", k, rp.Counts[k]))
	}
	fmt.Fprintf(w, "digest %s  %s\n", rp.Digest, strings.Join(counts, " "))
	for _, n := range rp.Notes {
		fmt.Fprintln(w, "! "+n)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

var errIncorrect = errors.New("outputs are not correct")
