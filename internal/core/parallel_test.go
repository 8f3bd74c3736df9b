package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
)

// sweepBase is a deliberately tiny dumbbell so the determinism tests run
// whole sweeps in milliseconds.
func sweepBase() DumbbellConfig {
	return DumbbellConfig{
		Protocol:         DCTCP(40, 1.0/16),
		Rate:             1 * netsim.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       100,
		Duration:         20 * time.Millisecond,
		Warmup:           5 * time.Millisecond,
		QueueSampleEvery: 100 * time.Microsecond,
		Seed:             42,
	}
}

func marshalSweep(t *testing.T, pts []FlowSweepPoint) []byte {
	t.Helper()
	b, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepDeterministicUnderParallelism is the PR's acceptance test: the
// same seed must yield byte-identical sweep results at -workers=1 and
// -workers=8. Each point owns a private engine, so the worker count can
// only change scheduling on the host, never inside the simulated world.
func TestSweepDeterministicUnderParallelism(t *testing.T) {
	flows := []int{2, 4, 8, 16, 24, 32}
	base := sweepBase()

	serial, err := SweepFlowsParallel(context.Background(), base, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepFlowsParallel(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}

	sj, pj := marshalSweep(t, serial), marshalSweep(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Fatalf("sweep results differ between workers=1 and workers=8:\nserial:   %.200s\nparallel: %.200s", sj, pj)
	}

	// And repeated parallel runs must agree with themselves.
	again, err := SweepFlowsParallel(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, marshalSweep(t, again)) {
		t.Fatal("two workers=8 sweeps with the same seed disagree")
	}
}

// TestSweepFlowsSerialMatchesParallelAPI pins the serial contract: a
// sweep at workers=1 is exactly the sweep on more workers than points.
func TestSweepFlowsSerialMatchesParallelAPI(t *testing.T) {
	flows := []int{2, 6}
	base := sweepBase()
	serial, err := SweepFlowsParallel(context.Background(), base, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepFlowsParallel(context.Background(), base, flows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSweep(t, serial), marshalSweep(t, par)) {
		t.Fatal("SweepFlowsParallel at workers=1 and workers=4 disagree on identical input")
	}
}

// TestSweepWorkersParallelDeterministic covers the testbed sweep the same
// way, with the incast runner as the experiment body.
func TestSweepWorkersParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("incast rounds are slow")
	}
	base := DefaultTestbed(DCTCP(40, 1.0/16), 0)
	counts := []int{2, 4, 6}
	run := func(cfg TestbedConfig, rounds int) (*QueryResult, error) {
		return RunQuery(cfg, 16<<10, rounds)
	}
	serial, err := SweepWorkersParallel(context.Background(), base, counts, 2, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepWorkersParallel(context.Background(), base, counts, 2, 8, run)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("testbed sweep differs between par=1 and par=8:\nserial:   %.200s\nparallel: %.200s", sj, pj)
	}
}
