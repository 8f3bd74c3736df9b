// Command dtconform runs the conformance grids of internal/conform: the
// paper grid (matched packet-simulator, fluid-model and
// describing-function scenarios whose steady-state queue, oscillation
// magnitude and limit-cycle period must agree), the hybrid grid (fluid
// background against a fully packet-level reference) and the protocol &
// switch zoo grid, each within its declared tolerances. It is the CLI
// face of the suite CI enforces via `go test ./internal/conform`.
//
// Usage:
//
//	dtconform                    # full paper grid, human-readable table
//	dtconform -grid quick        # four-point smoke subset (CI)
//	dtconform -grid hybrid       # hybrid co-simulation vs packet reference
//	dtconform -grid hybrid-quick # one hybrid scenario per protocol
//	dtconform -grid zoo          # protocol & switch zoo grid (DCTCP+,
//	                             # HULL phantom queues, shared-buffer DT)
//	dtconform -grid zoo-quick    # one zoo scenario per family
//	dtconform -workers 8         # cap concurrent scenario runs
//	dtconform -json              # machine-readable reports
//	dtconform -digests           # also print all eleven golden-run digests
//
// The exit status is 1 when any applicable check fails and 2 on an
// error, so the command slots directly into CI or a pre-merge hook.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"dtdctcp/internal/conform"
)

func main() {
	names := gridNames()
	grid := flag.String("grid", "full", "scenario set: "+strings.Join(names, ", "))
	workers := flag.Int("workers", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit reports as JSON instead of a table")
	digests := flag.Bool("digests", false, "also compute and print the golden-run digests")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dtconform [-grid %s] [-workers N] [-json] [-digests]\n",
			strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()

	ok, err := run(os.Stdout, *grid, *workers, *jsonOut, *digests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtconform:", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "dtconform: conformance FAILED")
		os.Exit(1)
	}
}

// gridNames lists the grid table's names in table order.
func gridNames() []string {
	var names []string
	for _, g := range conform.Grids() {
		names = append(names, g.Name)
	}
	return names
}

// output is the machine-readable shape of one invocation.
type output struct {
	Reports []conform.Report `json:"reports,omitempty"`
	Digests []conform.Digest `json:"digests,omitempty"`
	Pass    bool             `json:"pass"`
}

// run executes the named grid and writes the report; it returns whether
// every applicable check passed.
func run(w io.Writer, grid string, workers int, jsonOut, digests bool) (bool, error) {
	var points []conform.Point
	for _, g := range conform.Grids() {
		if g.Name == grid {
			points = g.Points
		}
	}
	if points == nil {
		return false, fmt.Errorf("unknown grid %q (want one of %s)", grid, strings.Join(gridNames(), ", "))
	}
	ctx := context.Background()
	reports, err := conform.RunGrid(ctx, points, workers)
	if err != nil {
		return false, err
	}
	out := output{Reports: reports, Pass: true}
	for _, r := range reports {
		out.Pass = out.Pass && r.Pass()
	}
	if digests {
		if out.Digests, err = conform.DigestGoldens(ctx, conform.Goldens(), workers); err != nil {
			return false, err
		}
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return out.Pass, enc.Encode(out)
	}
	return out.Pass, writeTable(w, out)
}

func writeTable(w io.Writer, out output) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tcheck\tsim\tref\tverdict\tdetail")
	for _, r := range out.Reports {
		for _, c := range r.Checks {
			verdict := "pass"
			detail := c.Detail
			switch {
			case c.Skipped != "":
				verdict = "skip"
				detail = c.Skipped
			case !c.Pass:
				verdict = "FAIL"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\n",
				r.Scenario, c.Name, c.Got, c.Ref, verdict, detail)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(out.Digests) > 0 {
		fmt.Fprintln(w, "\ngolden digests:")
		dw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(dw, "scenario\tevents\tmarks\tqueue_hash\tstats_hash")
		for _, d := range out.Digests {
			fmt.Fprintf(dw, "%s\t%d\t%d\t%s\t%s\n", d.Scenario, d.Events, d.Marks, d.QueueHash, d.StatsHash)
		}
		if err := dw.Flush(); err != nil {
			return err
		}
	}
	status := "PASS"
	if !out.Pass {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "\nconformance: %s (%d scenarios)\n", status, len(out.Reports))
	return err
}
