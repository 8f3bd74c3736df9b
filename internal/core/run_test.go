package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/tcp"
)

// TestAssignmentPermutationAllRunners is the metamorphic check on the
// domain→shard assignment for every runner that shards — the fabric —
// through the one hook: moving domains between shards must not change a
// single bit, because deliveries are ordered by domain index, never by
// shard.
func TestAssignmentPermutationAllRunners(t *testing.T) {
	const shards = 4
	run := func(t *testing.T) string {
		cfg := fabricConfig(t)
		cfg.Shards = shards
		res, err := RunFabric(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	t.Run("fabric", func(t *testing.T) {
		want := run(t)
		moved := 0
		testPermuteAssign = func(assign []int) {
			for d, s := range assign {
				if s != 0 {
					assign[d] = shards - s
					moved++
				}
			}
		}
		defer func() { testPermuteAssign = nil }()
		got := run(t)
		if moved == 0 {
			t.Fatal("vacuous: the runner never consulted the assignment hook")
		}
		if got != want {
			t.Fatalf("assignment permutation changed results:\nbase:     %s\npermuted: %s", want, got)
		}
	})
}

// TestRefusedConfigs pins configurations that used to panic or be
// silently rewritten: each must come back as a core: error.
func TestRefusedConfigs(t *testing.T) {
	dumbbell := determinismConfig(1)
	fabric := fabricConfig(t)
	type refusal struct {
		name string
		run  func() error
	}
	cases := []refusal{
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
		{"dumbbell negative shared pool", func() error {
			cfg := dumbbell
			cfg.SharedBuffer = SharedBufferConfig{Alpha: 1, PoolPkts: -5}
			_, err := RunDumbbell(cfg)
			return err
		}},
		{"dumbbell negative shared-buffer alpha", func() error {
			cfg := dumbbell
			cfg.SharedBuffer.Alpha = -1
			_, err := RunDumbbell(cfg)
			return err
		}},
		{"dumbbell NaN shared-buffer alpha", func() error {
			cfg := dumbbell
			cfg.SharedBuffer.Alpha = math.NaN()
			_, err := RunDumbbell(cfg)
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
	// tcp's sanitize once rewrote each of these dials to its default,
	// and a negative threshold ran as a marker that marks every packet.
	// Every runner refuses them.
	withTCP := func(mutate func(c *tcp.Config)) Protocol {
		p := DCTCP(40, 1.0/16)
		mutate(&p.TCP)
		return p
	}
	for _, d := range []struct {
		name  string
		proto Protocol
	}{
		{"G above 1", DCTCP(40, 2)},
		{"zero G", DCTCP(40, 0)},
		{"NaN G", DCTCP(40, math.NaN())},
		{"zero AckEvery", withTCP(func(c *tcp.Config) { c.AckEvery = 0 })},
		{"negative RTOMin", withTCP(func(c *tcp.Config) { c.RTOMin = -time.Millisecond })},
		{"zero RTOInitial", withTCP(func(c *tcp.Config) { c.RTOInitial = 0 })},
		{"negative K", DCTCP(-5, 1.0/16)},
		{"negative K1", DTDCTCP(-1, 50, 1.0/16)},
		{"negative K2", DTDCTCP(30, -1, 1.0/16)},
	} {
		cases = append(cases, refusal{"dumbbell " + d.name, func() error {
			cfg := dumbbell
			cfg.Protocol = d.proto
			_, err := RunDumbbell(cfg)
			return err
		}})
	}
	bad := DCTCP(40, 2)
	cases = append(cases,
		refusal{"fabric G above 1", func() error {
			cfg := fabric
			cfg.Protocol = bad
			_, err := RunFabric(cfg)
			return err
		}},
		refusal{"testbed G above 1", func() error {
			_, err := RunIncast(DefaultTestbed(bad, 4), 1)
			return err
		}},
		refusal{"hybrid G above 1", func() error {
			cfg := hybridTestConfig()
			cfg.Protocol = bad
			_, err := RunHybrid(cfg)
			return err
		}},
		refusal{"buildup G above 1", func() error {
			_, err := RunBuildup(bad)
			return err
		}})
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
	const want = "core: a randomized queue law on a fabric requires serial execution (Shards <= 1)"
	if _, err := RunFabric(cfg); err == nil || err.Error() != want {
		t.Fatalf("PIE fabric on 2 shards: got %v, want %q", err, want)
	}
}
