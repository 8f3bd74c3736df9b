package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// TestAssignmentPermutationAllRunners is the metamorphic check on the
// domain→shard assignment for every runner through the one hook: moving
// domains between shards (the pinned ones stay on shard 0) must not
// change a single bit, because deliveries are ordered by domain index,
// never by shard.
func TestAssignmentPermutationAllRunners(t *testing.T) {
	const shards = 4
	hybrid := func(fullPacket bool) func(int) (string, error) {
		return func(n int) (string, error) {
			cfg := hybridTestConfig()
			cfg.FullPacket = fullPacket
			cfg.Shards = n
			res, err := RunHybrid(cfg)
			if err != nil {
				return "", err
			}
			return res.Digest, nil
		}
	}
	runners := []struct {
		name string
		run  func(shards int) (string, error)
	}{
		{"dumbbell", func(n int) (string, error) {
			cfg := determinismConfig(7)
			cfg.Shards = n
			res, err := RunDumbbell(cfg)
			if err != nil {
				return "", err
			}
			return fingerprint(t, res), nil
		}},
		{"incast", func(n int) (string, error) {
			cfg := DefaultTestbed(DTDCTCP(16, 26, 1.0/16), 8)
			cfg.Shards = n
			res, err := RunQuery(cfg, 64<<10, 4)
			if err != nil {
				return "", err
			}
			return queryFingerprint(res), nil
		}},
		{"fabric", func(n int) (string, error) {
			cfg := fabricConfig(t)
			cfg.Shards = n
			res, err := RunFabric(cfg)
			if err != nil {
				return "", err
			}
			return res.Digest, nil
		}},
		{"hybrid", hybrid(false)},
		{"hybrid-packet", hybrid(true)},
	}
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			want, err := rn.run(shards)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			testPermuteAssign = func(assign, _ []int) {
				for d, s := range assign {
					if s != 0 {
						assign[d] = shards - s
						moved++
					}
				}
			}
			defer func() { testPermuteAssign = nil }()
			got, err := rn.run(shards)
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("vacuous: the runner never consulted the assignment hook")
			}
			if got != want {
				t.Fatalf("assignment permutation changed results:\nbase:     %s\npermuted: %s", want, got)
			}
		})
	}
}

// TestRefusedConfigs pins configurations that used to panic or be
// silently rewritten: each must come back as a core: error.
func TestRefusedConfigs(t *testing.T) {
	dumbbell := determinismConfig(1)
	buildup := DefaultBuildup(DCTCP(40, 1.0/16))
	fabric := fabricConfig(t)
	cases := []struct {
		name string
		run  func() error
	}{
		{"dumbbell negative warmup", func() error {
			cfg := dumbbell
			cfg.Warmup = -time.Millisecond
			_, err := RunDumbbell(cfg)
			return err
		}},
		{"dumbbell negative sample period", func() error {
			cfg := dumbbell
			cfg.QueueSampleEvery = -time.Microsecond
			_, err := RunDumbbell(cfg)
			return err
		}},
		{"buildup negative warmup", func() error {
			cfg := buildup
			cfg.Warmup = -time.Millisecond
			_, err := RunBuildup(cfg)
			return err
		}},
		{"completion time with no workers", func() error {
			_, err := RunCompletionTime(DefaultTestbed(DCTCP(21, 1.0/16), 0), 1)
			return err
		}},
		{"fabric SmallMax above the default LargeMin", func() error {
			cfg := fabric
			cfg.SmallMax = 2_000_000
			_, err := RunFabric(cfg)
			return err
		}},
		{"fabric LargeMin below the default SmallMax", func() error {
			cfg := fabric
			cfg.LargeMin = 50_000
			_, err := RunFabric(cfg)
			return err
		}},
		{"fabric negative bucket bound", func() error {
			cfg := fabric
			cfg.SmallMax = -1
			_, err := RunFabric(cfg)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if err == nil || !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("want a core: refusal, got %v", err)
			}
		})
	}
	// Bounds the user typed are the bounds reported.
	fabric.SmallMax, fabric.LargeMin = 20_000, 50_000
	res, err := RunFabric(fabric)
	if err != nil {
		t.Fatal(err)
	}
	if total := res.FCT[0].Flows + res.FCT[1].Flows + res.FCT[2].Flows; total != fabric.Flows {
		t.Fatalf("explicit buckets cover %d of %d flows", total, fabric.Flows)
	}
}

// TestSerialOnlyGates drives every row of the serial-only table through
// its runner: the feature is refused with the row's message at two
// shards and accepted by validation on one.
func TestSerialOnlyGates(t *testing.T) {
	dumbbell := func(set func(*DumbbellConfig)) func(int) error {
		return func(shards int) error {
			cfg := determinismConfig(1)
			cfg.Shards = shards
			set(&cfg)
			return cfg.validate()
		}
	}
	query := func(set func(*TestbedConfig)) func(int) error {
		return func(shards int) error {
			cfg := DefaultTestbed(DCTCP(21, 1.0/16), 4)
			cfg.Shards = shards
			set(&cfg)
			return cfg.validate()
		}
	}
	fabric := func(set func(*FabricConfig)) func(int) error {
		return func(shards int) error {
			cfg := fabricConfig(t)
			cfg.Shards = shards
			set(&cfg)
			return cfg.validate()
		}
	}
	use := map[string]func(shards int) error{
		"RunDumbbell/Chaos":              dumbbell(func(c *DumbbellConfig) { c.Chaos = chaosPlan() }),
		"RunDumbbell/MetricsSampleEvery": dumbbell(func(c *DumbbellConfig) { c.MetricsSampleEvery = time.Millisecond }),
		"RunQuery/Chaos":                 query(func(c *TestbedConfig) { c.Chaos = chaosPlan() }),
		"RunQuery/FreshConnections":      query(func(c *TestbedConfig) { c.FreshConnections = true }),
		"RunQuery/Gap < 2*HopDelay":      query(func(c *TestbedConfig) { c.Gap = c.HopDelay }),
		"RunFabric/randomized queue law (PIE, RED)": fabric(func(c *FabricConfig) {
			c.Protocol = RenoPIE(c.Rate, 500*time.Microsecond)
		}),
	}
	for _, g := range serialOnly {
		validate, ok := use[g.runner+"/"+g.feature]
		if !ok {
			t.Errorf("%s/%s: table row without a test case", g.runner, g.feature)
			continue
		}
		if err := validate(2); err == nil || err.Error() != g.refusal {
			t.Errorf("%s/%s at 2 shards: got %v, want %q", g.runner, g.feature, err, g.refusal)
		}
		if err := validate(1); err != nil {
			t.Errorf("%s/%s refused on the serial engine: %v", g.runner, g.feature, err)
		}
	}
}

// TestShardedFabricRefusesRandomizedLaw is the regression test for a data
// race: every fabric port's PIE draws from the construction engine's RNG
// at runtime, so on two shards both goroutines used shard 0's *rand.Rand
// (go test -race reported it on exactly this configuration). The
// combination is refused before anything is built; serially it runs.
func TestShardedFabricRefusesRandomizedLaw(t *testing.T) {
	cfg := fabricConfig(t)
	cfg.Protocol = RenoPIE(cfg.Rate, 500*time.Microsecond)
	cfg.Flows = 400
	if _, err := RunFabric(cfg); err != nil {
		t.Fatalf("serial PIE fabric: %v", err)
	}
	cfg.Shards = 2
	want := ""
	for _, g := range serialOnly {
		if g.runner == "RunFabric" {
			want = g.refusal
		}
	}
	if _, err := RunFabric(cfg); err == nil || err.Error() != want {
		t.Fatalf("PIE fabric on 2 shards: got %v, want %q", err, want)
	}
}

// TestRunEveryAndAtMatchAcrossEngines pins the harness's scheduling
// contract: every and at fire at the same instants, in the same order
// relative to an ordinary event landing on the same instant, whether
// the run is serial or sharded.
func TestRunEveryAndAtMatchAcrossEngines(t *testing.T) {
	const period = 10 * time.Microsecond
	observe := func(shards int) []string {
		r := newRun(1, shards)
		if _, err := r.star(DCTCP(40, 1.0/16), 2, netsim.Gbps, 8*time.Microsecond, 100, SharedBufferConfig{}); err != nil {
			t.Fatal(err)
		}
		var log []string
		note := func(what string, now sim.Time) { log = append(log, fmt.Sprintf("%s@%v", what, now)) }
		r.every(period, func(now sim.Time) { note("every", now) })
		r.at(sim.FromDuration(2*period), func() { note("at", sim.FromDuration(2*period)) })
		// The competing events run on the construction engine — inline on
		// the coordinator goroutine when sharded — and each is scheduled
		// after the tick it shares an instant with was.
		r.engine.After(period, func() { note("event", r.engine.Now()) })
		r.engine.After(period+period/2, func() {
			r.engine.After(period/2, func() { note("event", r.engine.Now()) })
		})
		if err := r.until(sim.FromDuration(3 * period)); err != nil {
			t.Fatal(err)
		}
		return log
	}
	want := []string{
		"every@10.000µs", "event@10.000µs",
		// at was scheduled at 0, the second tick at 10 µs: schedAt orders
		// them on both engines.
		"at@20.000µs", "every@20.000µs", "event@20.000µs",
		"every@30.000µs",
	}
	for _, shards := range []int{1, 2} {
		if got := observe(shards); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("shards=%d observed %v, want %v", shards, got, want)
		}
	}
}

// TestSerialOnlyTableInREADME keeps the README's serial-only table the
// one generated from the gate.
func TestSerialOnlyTableInREADME(t *testing.T) {
	var table strings.Builder
	table.WriteString("| Runner | Refused when `Shards > 1` | Why |\n|---|---|---|\n")
	for _, g := range serialOnly {
		fmt.Fprintf(&table, "| `%s` | `%s` | %s |\n", g.runner, g.feature, g.why)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), table.String()) {
		t.Fatalf("README.md does not carry the serial-only table; paste:\n%s", table.String())
	}
}
