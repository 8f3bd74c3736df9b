// Command benchmarks is the repository's performance ledger: seven named
// workloads, each measured end to end with nothing observing it and then
// once more traced, layer by layer. README.md in this directory names
// every workload and metric and says how to read the output.
//
//	go run ./benchmarks -seed 1              # the whole ledger, one child process per run
//	go run ./benchmarks -quick               # every workload at a twentieth of its size
//	go run ./benchmarks -aa                  # the end-to-end set twice; fails if the two disagree
//	go run ./benchmarks -update              # rewrite expected.json and BENCHMARK.json
//	go run ./benchmarks -workload fabric_k4 -seed 3 -seconds 10 -trace 0
//
// The last form is one run as the benchmark driver makes it: it measures
// one workload in this process and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// fullSeconds is the measuring time the full ledger gives each child:
// room for seven timed repetitions.
const fullSeconds = 12

func main() {
	start := time.Now()
	if err := run(os.Args[1:], start, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func run(args []string, start time.Time, stdout io.Writer) error {
	opt := options{dir: "benchmarks", start: start}
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "measure this one workload in-process (default: every workload, each in a child process)")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 0, "how long one run measures (default 10, or 12 under the full ledger)")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
	fs.BoolVar(&opt.quick, "quick", false, "every workload at about a twentieth of its size, two repetitions")
	fs.BoolVar(&opt.aa, "aa", false, "run the end-to-end set twice and fail if the medians disagree beyond the bounds")
	fs.BoolVar(&opt.update, "update", false, "rewrite expected.json from this run (seed 1, full size) and BENCHMARK.json from the tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(opt.dir, "expected.json")); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}

	if opt.workload != "" {
		rp, err := runWorkload(opt)
		if err != nil {
			return err
		}
		if err := printReport(stdout, rp); err != nil {
			return err
		}
		if !rp.Correct {
			return errIncorrect
		}
		return nil
	}
	return runLedger(opt, stdout)
}

// ledger is the whole run's output file: every child's report.
type ledger struct {
	Manifest manifest  `json:"manifest"`
	Runs     []*report `json:"runs"`
}

// runLedger runs every workload, each run in a child process of its own
// so that peak RSS and CPU time belong to one workload.
func runLedger(opt options, stdout io.Writer) error {
	if opt.update && (opt.quick || opt.seed != 1) {
		return fmt.Errorf("-update records seed 1 at full size")
	}
	if opt.seconds <= 0 {
		opt.seconds = fullSeconds
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	led := ledger{Manifest: newManifest(opt.seed, opt.quick, opt.start)}

	set := func(trace int) ([]*report, error) {
		var runs []*report
		for _, w := range workloads {
			rp, err := runChild(exe, opt, w.name, trace, stdout)
			if err != nil {
				return nil, err
			}
			runs = append(runs, rp)
		}
		return runs, nil
	}

	first, err := set(0)
	if err != nil {
		return err
	}
	led.Runs = first
	if opt.aa {
		second, err := set(0)
		if err != nil {
			return err
		}
		led.Runs = append(led.Runs, second...)
		if err := compareAA(stdout, first, second); err != nil {
			return err
		}
	} else {
		traced, err := set(1)
		if err != nil {
			return err
		}
		led.Runs = append(led.Runs, traced...)
		printLedger(stdout, first, traced)
	}

	if opt.update {
		want := map[string]expectation{}
		for _, rp := range first {
			want[rp.Workload] = expectation{rp.Digest, rp.Counts}
		}
		if err := writeJSON(filepath.Join(opt.dir, "expected.json"), want); err != nil {
			return err
		}
		if err := writeJSON("BENCHMARK.json", declaration()); err != nil {
			return err
		}
	}
	led.Manifest.TotalWallS = time.Since(opt.start).Seconds()
	fmt.Fprintf(stdout, "\ntotal %.1f s; reports in %s\n", led.Manifest.TotalWallS, filepath.Join(opt.dir, "out"))
	if err := writeJSON(filepath.Join(opt.dir, "out", "ledger.json"), led); err != nil {
		return err
	}
	for _, rp := range led.Runs {
		if !rp.Correct {
			return fmt.Errorf("%s: %w", rp.Workload, errIncorrect)
		}
	}
	return nil
}

// runChild re-executes this binary for one workload and reads back the
// report it wrote.
func runChild(exe string, opt options, workload string, trace int, stdout io.Writer) (*report, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	if opt.update {
		args = append(args, "-update")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	// An incorrect run exits non-zero after writing its report; the
	// ledger reads the report and carries on to the next workload.
	runErr := cmd.Run()
	raw, err := os.ReadFile(resultPath(opt.dir, workload, trace))
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	rp := new(report)
	if err := json.Unmarshal(raw, rp); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return rp, nil
}

// printLedger prints the end-to-end table and the per-layer table, one
// column per workload.
func printLedger(w io.Writer, e2e, traced []*report) {
	table := func(title string, specs []spec, runs []*report) {
		fmt.Fprintf(w, "\n%s\n%-28s %-6s", title, "metric", "unit")
		for _, rp := range runs {
			fmt.Fprintf(w, " %17s", rp.Workload)
		}
		fmt.Fprintln(w)
		for _, s := range specs {
			fmt.Fprintf(w, "%-28s %-6s", s.Name, s.Unit)
			for _, rp := range runs {
				fmt.Fprintf(w, " %17.6g", rp.Metrics[s.Name].Value)
			}
			fmt.Fprintln(w)
		}
	}
	table("end to end (median of the timed repetitions, tracing off)", endToEnd, e2e)
	fmt.Fprintf(w, "%-28s %-6s", "failed_ratio", "ratio")
	for _, rp := range e2e {
		fmt.Fprintf(w, " %17.6g", float64(rp.Failed)/float64(rp.Attempted))
	}
	fmt.Fprintln(w)
	table("per layer (traced pass; 0 where a metric does not apply)", perLayer, traced)
}

// compareAA prints, for every workload and end-to-end metric, the two
// sets' medians and their relative difference against the bound. Two
// sets of runs of one commit differ only by noise, so a breach means the
// bound is tighter than the machine allows.
func compareAA(w io.Writer, a, b []*report) error {
	fmt.Fprintf(w, "\nA/A: two sets of runs of the same commit\n%-18s %-12s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	breaches := 0
	for i := range a {
		for _, s := range endToEnd {
			x, y := a[i].Metrics[s.Name].Value, b[i].Metrics[s.Name].Value
			diff := (y - x) / x
			verdict := ""
			if math.Abs(diff) > s.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-18s %-12s %12.6g %12.6g %+8.2f%% %6.0f%%%s\n", a[i].Workload, s.Name, x, y, diff*100, s.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload × metric pairs differ by more than their bound", breaches)
	}
	return nil
}
