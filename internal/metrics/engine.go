package metrics

import (
	"strconv"

	"dtdctcp/internal/sim"
)

// InstrumentEngineStats registers pull metrics over an engine's existing
// counters: events scheduled, executed, and cancelled, insertions a sorted
// lane took past the heap, free-list hits and misses plus the derived hit
// rate, compaction passes, and the pending-queue depth with its
// high-water mark. The source is a single
// engine's Stats, or a ShardedEngine's merged Stats, so a partitioned
// run exports one coherent set of totals instead of per-shard
// fragments. It is only called at snapshot time, so the event loop is
// untouched.
func InstrumentEngineStats(r *Registry, stats func() sim.EngineStats) {
	r.CounterFunc("sim_events_scheduled_total",
		"Events scheduled on the engine, one per timer arm (a rearm in place queues nothing but still counts).",
		func() uint64 { return stats().Scheduled })
	r.CounterFunc("sim_events_executed_total",
		"Events whose handler ran.",
		func() uint64 { return stats().Processed })
	r.CounterFunc("sim_events_cancelled_total",
		"Events cancelled before firing, one per stopped or superseded timer deadline.",
		func() uint64 { return stats().Cancelled })
	r.CounterFunc("sim_events_lane_total",
		"Queue insertions appended to a sorted lane instead of sifted into the heap; well below sim_events_executed_total when a run's delays are irregular or more of them recur than there are lanes.",
		func() uint64 { return stats().LaneHits })
	r.CounterFunc("sim_queue_compactions_total",
		"Compaction passes removing cancelled events from the heap and the lanes.",
		func() uint64 { return stats().Compactions })
	r.CounterFunc("sim_free_list_hits_total",
		"Event allocations served from the free list.",
		func() uint64 { return stats().FreeHits })
	r.CounterFunc("sim_free_list_misses_total",
		"Event allocations that fell through to the heap.",
		func() uint64 { return stats().FreeMisses })
	r.GaugeFunc("sim_free_list_hit_rate",
		"Fraction of event allocations served from the free list.",
		func() float64 {
			s := stats()
			total := s.FreeHits + s.FreeMisses
			if total == 0 {
				return 0
			}
			return float64(s.FreeHits) / float64(total)
		})
	r.GaugeFunc("sim_events_pending",
		"Events currently queued, in the heap and the lanes (including uncompacted cancellations; a timer holds one entry however often it is rearmed).",
		func() float64 { return float64(stats().Pending) })
	r.GaugeFunc("sim_events_pending_max",
		"High-water mark of the pending-event queue (the maximum over shards in a sharded run, since per-shard marks do not align in time).",
		func() float64 { return float64(stats().MaxPending) })
}

// InstrumentShardStats registers the sharded coordinator's counters:
// windows, deliveries through the barrier and around it, and the events
// each shard processed. All are exact functions of the run, read at
// snapshot time.
func InstrumentShardStats(r *Registry, se *sim.ShardedEngine) {
	r.CounterFunc("sim_shard_epochs_total",
		"Epoch windows the coordinator dispatched.",
		func() uint64 { return se.ShardStats().Epochs })
	r.CounterFunc("sim_shard_messages_total",
		"Link deliveries that crossed shards through the barrier mailbox.",
		func() uint64 { return se.ShardStats().Messages })
	r.CounterFunc("sim_shard_colocated_total",
		"Link deliveries scheduled directly because source and destination share a shard.",
		func() uint64 { return se.ShardStats().Colocated })
	for i := 0; i < se.NumShards(); i++ {
		r.CounterFunc("sim_shard_events_total",
			"Events processed, by shard.",
			func() uint64 { return se.ShardStats().Events[i] }, L("shard", strconv.Itoa(i)))
	}
}
