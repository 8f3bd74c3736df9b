package core

import (
	"fmt"
	"testing"
)

// zooShardConfig is the combined protocol-and-switch-zoo determinism
// scenario: DCTCP+ senders (engine-seeded randomized pacing) draining
// through a shared-buffer switch (dynamic-threshold admission with the
// pool pinned to one shard). It exercises every new stochastic and
// stateful element of the zoo in a single run.
func zooShardConfig(seed int64) DumbbellConfig {
	cfg := determinismConfig(seed)
	cfg.Protocol = DCTCPPlus(30, 1.0/16)
	cfg.SharedBuffer = SharedBufferConfig{Alpha: 2}
	return cfg
}

// TestShardedZooMatchesSerial extends the sharded determinism contract
// to the zoo: a DCTCP+ run through a shared-buffer switch must
// fingerprint identically on the serial engine and at every shard count
// — the pacing RNG is seeded before the shards fork, and the pool's
// member ports are pinned to a single shard.
func TestShardedZooMatchesSerial(t *testing.T) {
	serial, err := RunDumbbell(zooShardConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := zooShardConfig(7)
			cfg.Shards = shards
			res, err := RunDumbbell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, res); got != want {
				t.Fatalf("sharded zoo run diverged from serial:\nserial:\n%s\nsharded:\n%s",
					diffHead(want, got), diffHead(got, want))
			}
		})
	}
}

// TestShardedZooRepeatable reruns the same sharded zoo configuration:
// goroutine scheduling must not leak into the pacing draws or the pool
// admission order.
func TestShardedZooRepeatable(t *testing.T) {
	cfg := zooShardConfig(11)
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
		t.Fatalf("same sharded zoo config produced diverging runs:\nfirst:\n%s\nsecond:\n%s",
			diffHead(fp1, fp2), diffHead(fp2, fp1))
	}
}

// TestShardedZooAssignmentPermutation is the metamorphic check on the
// zoo scenario: however the domains are grouped (the pinned pool members
// stay together on shard 0), not a single bit may change.
func TestShardedZooAssignmentPermutation(t *testing.T) {
	checkDumbbellRegroupings(t, zooShardConfig(7))
}

// TestShardedHULLMatchesSerial pins the phantom queue under sharding:
// the virtual-queue drain is pure port-local state, so a HULL run must
// match serial at every shard count with no extra pinning.
func TestShardedHULLMatchesSerial(t *testing.T) {
	mk := func(seed int64) DumbbellConfig {
		cfg := determinismConfig(seed)
		cfg.Protocol = HULL(30, 0.95, cfg.Rate, 1.0/16)
		return cfg
	}
	serial, err := RunDumbbell(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial)
	if serial.Marks == 0 {
		t.Fatal("vacuous: the phantom queue never marked")
	}
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := mk(7)
			cfg.Shards = shards
			res, err := RunDumbbell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(t, res); got != want {
				t.Fatalf("sharded HULL run diverged from serial:\nserial:\n%s\nsharded:\n%s",
					diffHead(want, got), diffHead(got, want))
			}
		})
	}
}

// TestShardedZooSeedSensitivity guards the other direction for the new
// stochastic element: the engine seed steers the DCTCP+ pacing draws, so
// two seeds must not fingerprint identically under sharding.
func TestShardedZooSeedSensitivity(t *testing.T) {
	mk := func(seed int64) DumbbellConfig {
		cfg := zooShardConfig(seed)
		cfg.Shards = 2
		return cfg
	}
	a, err := RunDumbbell(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDumbbell(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("different seeds produced byte-identical sharded zoo runs")
	}
}

// TestShardedZooIncastMatchesSerial closes the loop on the testbed side:
// the relay-mode query runner with DCTCP+ workers must reproduce the
// serial incast bit for bit — the per-sender pacing seeds are drawn from
// the engine source before the shards fork.
func TestShardedZooIncastMatchesSerial(t *testing.T) {
	base := DefaultTestbed(DCTCPPlus(20, 1.0/16), 8)
	serial, err := RunQuery(base, 64<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(serial)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			res, err := RunQuery(cfg, 64<<10, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got := queryFingerprint(res); got != want {
				t.Fatalf("sharded DCTCP+ query run diverged from serial:\nserial: %s\nsharded: %s", want, got)
			}
		})
	}
}
