package metrics

import "dtdctcp/internal/sim"

// InstrumentEngineStats registers pull metrics over an engine's existing
// counters: events scheduled, executed, and cancelled, insertions a sorted
// lane took past the heap, free-list hits and misses plus the derived hit
// rate, compaction passes, and the pending-queue depth with its
// high-water mark. stats is only called at snapshot time, so the event
// loop is untouched.
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
		"High-water mark of the pending-event queue of the run's one event wheel.",
		func() float64 { return float64(stats().MaxPending) })
}
