// Command dtlint runs the repository's custom static-analysis suite (see
// internal/lint): determinism and correctness rules the simulator depends
// on but the compiler cannot check.
//
// Usage:
//
//	go run ./cmd/dtlint [-list] [-json] [-C dir] [packages]
//
// Packages default to ./... and accept the usual go-list patterns.
//
// Output is one finding per line in file:line:col form, or, with -json, a
// single stable document:
//
//	{"version": 1, "count": N, "findings": [
//	    {"file": "...", "line": 1, "column": 1, "analyzer": "...", "message": "..."}]}
//
// A justified exception is suppressed at its site with a
// //dtlint:allow comment giving the reason.
//
// Exit codes:
//
//	0  no findings
//	1  findings
//	2  usage, load, or internal error
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dtdctcp/internal/lint"
)

// jsonVersion guards the output schema; bump only with a consumer-visible
// change.
const jsonVersion = 1

// report is the JSON document -json emits.
type report struct {
	Version  int       `json:"version"`
	Count    int       `json:"count"`
	Findings []finding `json:"findings"`
}

// finding is one diagnostic in the stable wire form.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func toFindings(diags []lint.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

func writeReport(w io.Writer, findings []finding) error {
	r := report{Version: jsonVersion, Count: len(findings), Findings: findings}
	if r.Findings == nil {
		r.Findings = []finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// run is main with the process edges injected, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := fs.Bool("json", false, "emit findings as a single JSON document")
	dir := fs.String("C", ".", "run as if launched from `dir` (go list working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dtlint [-list] [-json] [-C dir] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "dtlint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "dtlint:", err)
		return 2
	}

	findings := toFindings(diags)

	if *asJSON {
		if err := writeReport(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "dtlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dtlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
