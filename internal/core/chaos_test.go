package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dtdctcp/internal/chaos"
)

// chaosPlan is a nontrivial plan engaging every RNG-drawing event kind:
// jittered flapping, a corruption window, and a Poisson burst, all
// inside the measured interval of determinismConfig (5 ms warmup +
// 20 ms measure).
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{
		Name:        "determinism-mix",
		Description: "flap + corruption + burst inside the measured window",
		Events: []chaos.Event{
			{At: chaos.D(12 * time.Millisecond), Kind: chaos.KindFlap, Link: "bottleneck",
				Every: chaos.D(time.Millisecond), DownFor: chaos.D(200 * time.Microsecond),
				Count: 3, Jitter: 0.3, Flush: true},
			{At: chaos.D(16 * time.Millisecond), Kind: chaos.KindCorrupt, Link: "bottleneck",
				Prob: 0.01, For: chaos.D(2 * time.Millisecond)},
			{At: chaos.D(18 * time.Millisecond), Kind: chaos.KindBurst, Link: "bottleneck",
				RateBps: 500_000_000, For: chaos.D(2 * time.Millisecond), PacketBytes: 1500},
		},
	}
}

func chaosConfig(seed int64) DumbbellConfig {
	cfg := determinismConfig(seed)
	cfg.Chaos = chaosPlan()
	return cfg
}

// chaosFingerprint extends the base fingerprint with the chaos-specific
// observables so divergence in fault accounting or recovery metrics is
// caught too.
func chaosFingerprint(t *testing.T, res *DumbbellResult) string {
	t.Helper()
	fp := fingerprint(t, res)
	fp += fmt.Sprintf("faultdrops=%d\n", res.FaultDrops)
	if res.Recovery != nil {
		r := res.Recovery
		fp += fmt.Sprintf("recovery drained=%v drain=%x relocked=%v relock=%x refmean=%x refstd=%x refperiod=%x\n",
			r.Drained, math.Float64bits(r.DrainTime), r.Relocked, math.Float64bits(r.RelockTime),
			math.Float64bits(r.RefMean), math.Float64bits(r.RefStd), math.Float64bits(r.RefPeriod))
	}
	return fp
}

// TestChaosDeterminismSameSeed extends the determinism contract to
// chaotic runs: flap jitter, corruption coin flips, and burst
// inter-arrivals all draw from the engine RNG, so the same seed + plan
// must reproduce the run byte-identically.
func TestChaosDeterminismSameSeed(t *testing.T) {
	first, err := RunDumbbell(chaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDumbbell(chaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := chaosFingerprint(t, first), chaosFingerprint(t, second)
	if fp1 != fp2 {
		t.Fatalf("same seed + plan diverged:\nfirst:\n%s\nsecond:\n%s",
			diffHead(fp1, fp2), diffHead(fp2, fp1))
	}
	if first.FaultDrops == 0 {
		t.Fatal("chaos plan caused no fault drops; the faults never engaged")
	}
	if second.Recovery == nil {
		t.Fatal("Recovery metrics missing despite Chaos + QueueSampleEvery")
	}
}

// TestChaosDeterminismSeedSensitivity: the chaos draws must be steered
// by the engine seed, not a private source.
func TestChaosDeterminismSeedSensitivity(t *testing.T) {
	a, err := RunDumbbell(chaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDumbbell(chaosConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if chaosFingerprint(t, a) == chaosFingerprint(t, b) {
		t.Fatal("different seeds produced byte-identical chaotic runs")
	}
}

// TestChaosDeterminismAcrossWorkers pins the acceptance criterion: a
// chaotic sweep is byte-identical between -workers 1 and -workers 8.
func TestChaosDeterminismAcrossWorkers(t *testing.T) {
	base := chaosConfig(7)
	flows := []int{4, 8, 12}
	serial, err := SweepFlowsParallel(context.Background(), base, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepFlowsParallel(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		fp1 := chaosFingerprint(t, serial[i].Result)
		fp8 := chaosFingerprint(t, parallel[i].Result)
		if fp1 != fp8 {
			t.Fatalf("N=%d diverged between 1 and 8 workers:\n%s", flows[i], diffHead(fp1, fp8))
		}
	}
}

// TestChaosRecoveryObservables sanity-checks the wired-through metrics
// on a plain blackout: the queue drains and the oscillation re-locks
// within the run.
func TestChaosRecoveryObservables(t *testing.T) {
	cfg := determinismConfig(3)
	cfg.Flows = 20
	cfg.Duration = 40 * time.Millisecond
	cfg.Chaos = &chaos.Plan{
		Name: "blackout-obs",
		Events: []chaos.Event{
			{At: chaos.D(15 * time.Millisecond), Kind: chaos.KindLinkDown, Link: "bottleneck",
				DownFor: chaos.D(2 * time.Millisecond)},
		},
	}
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery metrics")
	}
	if res.FaultDrops == 0 {
		t.Fatal("a 2 ms blackout under 20 flows dropped nothing")
	}
	if !res.Recovery.Drained {
		t.Fatalf("queue never drained after the blackout: %+v", res.Recovery)
	}
	if res.Recovery.RefMean <= 0 {
		t.Fatalf("empty pre-fault reference: %+v", res.Recovery)
	}
}
