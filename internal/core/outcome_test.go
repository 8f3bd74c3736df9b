package core

import (
	"testing"
	"time"

	"dtdctcp/internal/chaos"
)

// TestMetricsDoNotPerturbOutcome: the metrics registry is pull-based, so
// turning it on changes no counter and no digest in any runner. Each row
// runs once with metrics off and once on, and compares the whole Outcome
// but its snapshot, plus the runner's digest where it has one.
func TestMetricsDoNotPerturbOutcome(t *testing.T) {
	fabric := fabricConfig(t)
	cases := []struct {
		name string
		run  func(metrics bool) (Outcome, string, error)
	}{
		{"dumbbell", func(metrics bool) (Outcome, string, error) {
			cfg := determinismConfig(3)
			cfg.Metrics = metrics
			res, err := RunDumbbell(cfg)
			if err != nil {
				return Outcome{}, "", err
			}
			return res.Outcome, fingerprint(t, res), nil
		}},
		{"testbed", func(metrics bool) (Outcome, string, error) {
			cfg := DefaultTestbed(DCTCP(21, 1.0/16), 40)
			cfg.Metrics = metrics
			res, err := RunIncast(cfg, 2)
			if err != nil {
				return Outcome{}, "", err
			}
			return res.Outcome, "", nil
		}},
		{"fabric", func(metrics bool) (Outcome, string, error) {
			cfg := fabric
			cfg.Metrics = metrics
			res, err := RunFabric(cfg)
			if err != nil {
				return Outcome{}, "", err
			}
			return res.Outcome, res.Digest, nil
		}},
		{"hybrid", func(metrics bool) (Outcome, string, error) {
			cfg := hybridTestConfig()
			cfg.Metrics = metrics
			res, err := RunHybrid(cfg)
			if err != nil {
				return Outcome{}, "", err
			}
			return res.Outcome, res.Digest, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off, offDigest, err := c.run(false)
			if err != nil {
				t.Fatal(err)
			}
			on, onDigest, err := c.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if off.Metrics != nil || on.Metrics == nil {
				t.Fatalf("snapshot present with metrics off (%t) or missing with metrics on (%t)",
					off.Metrics != nil, on.Metrics == nil)
			}
			if on.Events == 0 {
				t.Fatal("no event processed")
			}
			on.Metrics = nil
			if on != off || onDigest != offDigest {
				t.Fatalf("metrics perturbed the run:\n on %+v %s\noff %+v %s", on, onDigest, off, offDigest)
			}
		})
	}
}

// TestFaultDropsCoverEveryPort: a fault on any link counts, not only on
// the bottleneck. Downing the dumbbell's ACK path loses ACKs at the
// receiver's uplink.
func TestFaultDropsCoverEveryPort(t *testing.T) {
	down := func(link string, at, d time.Duration) *chaos.Plan {
		return &chaos.Plan{Name: link + "-down", Events: []chaos.Event{
			{At: chaos.D(at), Kind: chaos.KindLinkDown, Link: link, DownFor: chaos.D(d)},
		}}
	}
	dumbbell := determinismConfig(1)
	dumbbell.Chaos = down("ack", 10*time.Millisecond, 2*time.Millisecond)
	res, err := RunDumbbell(dumbbell)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultDrops == 0 {
		t.Error("2 ms of a down ACK link reported no fault drop")
	}
}
