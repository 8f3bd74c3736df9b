package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// shardCounts is the acceptance matrix: sharded runs at every count must
// reproduce the serial run byte for byte.
var shardCounts = []int{2, 4, 8}

// TestShardedDumbbellMatchesSerial is the sharded-execution determinism
// contract on the dumbbell: for any shard count, a partitioned run must
// fingerprint identically to the serial engine — same queue trace, same
// α series, same per-flow byte counts, bit for bit.
func TestShardedDumbbellMatchesSerial(t *testing.T) {
	serial, err := RunDumbbell(determinismConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := determinismConfig(7)
			cfg.Shards = shards
			res, err := RunDumbbell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, res); got != want {
				t.Fatalf("sharded run diverged from serial:\nserial:\n%s\nsharded:\n%s",
					diffHead(want, got), diffHead(got, want))
			}
		})
	}
}

// TestShardedDumbbellRepeatable reruns the same sharded configuration:
// goroutine scheduling must not leak into results.
func TestShardedDumbbellRepeatable(t *testing.T) {
	cfg := determinismConfig(11)
	cfg.Shards = 4
	first, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := fingerprint(t, first), fingerprint(t, second)
	if fp1 != fp2 {
		t.Fatalf("same sharded config produced diverging runs:\nfirst:\n%s\nsecond:\n%s",
			diffHead(fp1, fp2), diffHead(fp2, fp1))
	}
}

// regroupings are the domain→shard assignments the metamorphic tests
// move a run through. Deliveries between domains that share a shard skip
// the barrier mailbox, so which events take which sequence numbers on
// which engine depends on the grouping; results must not. Each rewrites
// the default (leafward) assignment in place, leaving pinned domains on
// shard 0.
var regroupings = []struct {
	name    string
	rewrite func(assign []int, pinned map[int]bool, shards int)
}{
	{"leafward", func([]int, map[int]bool, int) {}},
	{"round-robin", func(assign []int, pinned map[int]bool, shards int) {
		next := 0
		for d := range assign {
			if !pinned[d] {
				assign[d] = next % shards
				next++
			}
		}
	}},
	{"one-shard", func(assign []int, _ map[int]bool, _ int) { clear(assign) }},
	{"random", func(assign []int, pinned map[int]bool, shards int) {
		rng := rand.New(rand.NewSource(int64(len(assign))))
		for d := range assign {
			if !pinned[d] {
				assign[d] = rng.Intn(shards)
			}
		}
	}},
}

// eachRegrouping calls run once per regrouping and shard count in
// {2, 3, 4}, as a subtest, with the assignment hook installed.
func eachRegrouping(t *testing.T, run func(t *testing.T, group string, shards int)) {
	defer func() { testPermuteAssign = nil }()
	for _, g := range regroupings {
		for _, shards := range []int{2, 3, 4} {
			consulted := false
			testPermuteAssign = func(assign, pins []int) {
				consulted = true
				pinned := make(map[int]bool, len(pins))
				for _, d := range pins {
					pinned[d] = true
				}
				g.rewrite(assign, pinned, shards)
			}
			t.Run(fmt.Sprintf("%s/shards=%d", g.name, shards), func(t *testing.T) { run(t, g.name, shards) })
			if !consulted {
				t.Fatal("vacuous: the runner never consulted the assignment hook")
			}
		}
	}
}

// checkDumbbellRegroupings holds every regrouping of cfg's sharded run
// to the serial fingerprint, and to one event count. (The serial count
// differs: its sampler ticks are engine events, a sharded run's are
// barrier tasks.)
func checkDumbbellRegroupings(t *testing.T, cfg DumbbellConfig) {
	serial, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	var events uint64
	eachRegrouping(t, func(t *testing.T, _ string, shards int) {
		cfg := cfg
		cfg.Shards = shards
		res, err := RunDumbbell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(t, res); got != want {
			t.Fatalf("regrouped run diverged from serial:\nserial:\n%s\nsharded:\n%s",
				diffHead(want, got), diffHead(got, want))
		}
		if events == 0 {
			events = res.Events
		}
		if res.Events != events {
			t.Fatalf("%d events, other groupings %d", res.Events, events)
		}
	})
}

// TestShardedDumbbellAssignmentPermutation is the metamorphic check on
// the domain→shard assignment of the star: however its domains are
// grouped (the root-RNG consumers stay pinned to shard 0), the run must
// not change a single bit, because every delivery is ordered by domain
// index, never by shard, mailbox or not.
func TestShardedDumbbellAssignmentPermutation(t *testing.T) {
	checkDumbbellRegroupings(t, determinismConfig(7))
}

// TestShardedDumbbellGating pins the validation surface: features with
// no sharded equivalent must be rejected up front, not fail mysteriously
// mid-run.
func TestShardedDumbbellGating(t *testing.T) {
	cfg := determinismConfig(1)
	cfg.Shards = 2
	cfg.MetricsSampleEvery = time.Millisecond
	if _, err := RunDumbbell(cfg); err == nil {
		t.Fatal("sharded run with MetricsSampleEvery should be rejected")
	}
}

// TestShardedDumbbellPIEMatchesSerial pins the root-RNG discipline: PIE
// draws from the run's root source on every dequeue, so the sharded run
// only matches serial if the bottleneck's domain stays on shard 0 and no
// other shard touches that stream.
func TestShardedDumbbellPIEMatchesSerial(t *testing.T) {
	cfg := determinismConfig(7)
	cfg.Protocol = RenoPIE(cfg.Rate, 500*time.Microsecond)
	serial, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	cfg.Shards = 4
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, res); got != want {
		t.Fatalf("sharded PIE run diverged from serial:\nserial:\n%s\nsharded:\n%s",
			diffHead(want, got), diffHead(got, want))
	}
}

// queryFingerprint serializes every observable of a query run
// bit-exactly (floats via %x), mirroring the dumbbell fingerprint.
func queryFingerprint(res *QueryResult) string {
	return fmt.Sprintf("rounds=%d goodput=%x mean=%d p95=%d max=%d std=%d timeouts=%d drops=%d missed=%d missrate=%x",
		res.Rounds, math.Float64bits(res.MeanGoodputBps),
		res.MeanCompletion, res.P95Completion, res.MaxCompletion, res.CompletionStdDev,
		res.Timeouts, res.Drops, res.MissedDeadlines, math.Float64bits(res.DeadlineMissRate))
}

// TestShardedQueryMatchesSerial is the sharded determinism contract on
// the testbed: the relay-mode query runner must reproduce the serial
// incast run bit for bit at every shard count, including deadline
// bookkeeping (deadlines engage the D2TCP-style miss accounting).
func TestShardedQueryMatchesSerial(t *testing.T) {
	base := DefaultTestbed(DTDCTCP(16, 26, 1.0/16), 8)
	base.Deadline = 30 * time.Millisecond
	const rounds = 4
	serial, err := RunQuery(base, 64<<10, rounds)
	if err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(serial)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			res, err := RunQuery(cfg, 64<<10, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if got := queryFingerprint(res); got != want {
				t.Fatalf("sharded query run diverged from serial:\nserial: %s\nsharded: %s", want, got)
			}
			// The serial engine starts rounds 2..N with events on its own
			// wheel; relay mode starts them with barrier tasks, which are
			// not engine events.
			if wantEvents := serial.Events - (rounds - 1); res.Events != wantEvents {
				t.Fatalf("%d events, want the serial run's %d less %d round starts", res.Events, serial.Events, rounds-1)
			}
		})
	}
}

// TestShardedQueryRepeatable reruns one sharded testbed configuration.
func TestShardedQueryRepeatable(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 6)
	cfg.Shards = 4
	first, err := RunQuery(cfg, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunQuery(cfg, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := queryFingerprint(first), queryFingerprint(second); a != b {
		t.Fatalf("same sharded config produced diverging query runs:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// TestShardedQueryGating pins the testbed validation surface.
func TestShardedQueryGating(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 4)
	cfg.Shards = 2
	cfg.FreshConnections = true
	if _, err := RunQuery(cfg, 1<<10, 1); err == nil {
		t.Fatal("sharded run with FreshConnections should be rejected")
	}
	cfg.FreshConnections = false
	cfg.Gap = cfg.HopDelay // below the 2×lookahead floor
	if _, err := RunQuery(cfg, 1<<10, 1); err == nil {
		t.Fatal("sharded run with Gap < 2*HopDelay should be rejected")
	}
}
