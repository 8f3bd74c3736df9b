package trace_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata golden trace")

// goldenTrace runs a short dumbbell with a Recorder on the bottleneck and
// returns the raw JSONL.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := core.DumbbellConfig{
		Protocol:   core.DCTCP(40, 1.0/16),
		Flows:      4,
		Rate:       1 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 50,
		Duration:   2 * time.Millisecond,
		Warmup:     time.Millisecond,
		Seed:       1,
		TraceTo:    &buf,
	}
	if _, err := core.RunDumbbell(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace pins the Recorder's exact JSONL output for a short
// dumbbell run. Regenerate with:
//
//	go test ./internal/trace -run Golden -update
func TestGoldenTrace(t *testing.T) {
	got := goldenTrace(t)
	path := filepath.Join("testdata", "golden_dumbbell.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace drifted from %s: got %d bytes, want %d (run with -update if intended)",
			path, len(got), len(want))
	}
}

// TestGoldenTraceWellFormed re-decodes the fixture line by line: every
// line is valid JSON, timestamps are nondecreasing, and the packet kinds
// are present.
func TestGoldenTraceWellFormed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_dumbbell.jsonl"))
	if err != nil {
		t.Fatalf("%v (run TestGoldenTrace with -update to generate)", err)
	}
	kinds := map[trace.Kind]int{}
	prev := -1.0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	lines := 0
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines+1, err)
		}
		if ev.T < prev {
			t.Fatalf("line %d: timestamp %v before %v", lines+1, ev.T, prev)
		}
		prev = ev.T
		kinds[ev.Kind]++
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("fixture is empty")
	}
	for _, want := range []trace.Kind{trace.KindEnqueue, trace.KindDequeue, trace.KindMark} {
		if kinds[want] == 0 {
			t.Errorf("fixture has no %q events", want)
		}
	}
}
