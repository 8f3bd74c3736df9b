package metrics

import (
	"testing"

	"dtdctcp/internal/sim"
)

// TestInstrumentShardStats reads the coordinator's counters through the
// registry: two shards, one event each in the first window, one mailbox
// message and one co-located delivery noted by shard 1.
func TestInstrumentShardStats(t *testing.T) {
	se := sim.NewShardedEngine(1, 2)
	se.SetLookahead(10)
	r := NewRegistry()
	InstrumentShardStats(r, se)
	se.Shard(0).Schedule(1, func() {})
	se.Shard(1).Schedule(2, func() {
		se.Outbox(1).Ship(sim.Message{At: 12, SchedAt: 2, SrcKey: 1, Dst: 0, Fn: func(any) {}})
		se.Outbox(1).NoteLocal()
	})
	if err := se.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot(0)
	for id, want := range map[string]uint64{
		"sim_shard_epochs_total":            2,
		"sim_shard_messages_total":          1,
		"sim_shard_colocated_total":         1,
		`sim_shard_events_total{shard="0"}`: 2,
		`sim_shard_events_total{shard="1"}`: 1,
	} {
		if got := snap.CounterValue(id); got != want {
			t.Errorf("%s = %d, want %d", id, got, want)
		}
	}
}
