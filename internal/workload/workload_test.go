package workload

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

// star builds n sender hosts → switch → one receiver via the shared
// topo helper, bottleneck at the switch→receiver port.
func star(t testing.TB, n int, bneckRate netsim.Rate, bufferPkts int, pol aqm.Policy) (
	*sim.Engine, []*netsim.Host, *netsim.Host, *netsim.Port) {
	t.Helper()
	e := sim.NewEngine(7)
	nw := netsim.NewNetwork(e)
	const pkt = 1500
	delay := 20 * time.Microsecond
	st, err := topo.NewStar(nw, topo.StarConfig{
		Senders:    n,
		Access:     netsim.PortConfig{Rate: 10 * bneckRate, Delay: delay, Buffer: 4000 * pkt},
		Bottleneck: netsim.PortConfig{Rate: bneckRate, Delay: delay, Buffer: bufferPkts * pkt, Policy: pol},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, st.Senders, st.Receiver, st.Bottleneck
}

func TestLongLivedFlowsMakeProgress(t *testing.T) {
	e, hosts, rcv, bneck := star(t, 5, 1*netsim.Gbps, 400, aqm.NewSingleThresholdPackets(40, 1500))
	w := StartLongLived(e, LongLivedConfig{
		Hosts:       hosts,
		Receiver:    rcv,
		TCP:         tcp.DefaultConfig(tcp.DCTCP),
		StartJitter: 100 * time.Microsecond,
	})
	if err := e.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(w.Senders) != 5 {
		t.Fatalf("Senders = %d", len(w.Senders))
	}
	// The sink's flow table is sized once for the five receivers: 16
	// slots, the least power of two at most half full.
	if c := rcv.EndpointCapacity(); c != 8 {
		t.Fatalf("receiver host holds %d endpoints before growing, want 8", c)
	}
	total := w.TotalAcked()
	if total == 0 {
		t.Fatal("no progress")
	}
	// Utilization sanity: 200 ms at 1 Gbps ≈ 25 MB capacity.
	capacity := (1 * netsim.Gbps).BytesPerSecond() * 0.2
	if float64(total) < 0.7*capacity {
		t.Fatalf("acked %d bytes, want ≥ 70%% of %v", total, capacity)
	}
	if a := w.MeanAlpha(); a <= 0 || a > 1 {
		t.Fatalf("MeanAlpha = %v", a)
	}
	if c := w.MeanCwnd(); !(c > 0) {
		t.Fatalf("MeanCwnd = %v", c)
	}
	var none LongLived
	if a, c := none.MeanAlpha(), none.MeanCwnd(); a != 0 || c != 0 {
		t.Fatalf("no flows: MeanAlpha = %v, MeanCwnd = %v, want 0", a, c)
	}
	_, _ = w.Losses() // must not panic
	if bneck.Stats().Marked == 0 {
		t.Fatal("no marking at bottleneck")
	}
}

// TestLongLivedZeroJitterStartsImmediately: without jitter every sender
// transmits at the instant the set starts, not at some later event.
func TestLongLivedZeroJitterStartsImmediately(t *testing.T) {
	e, hosts, rcv, _ := star(t, 2, 1*netsim.Gbps, 400, nil)
	w := StartLongLived(e, LongLivedConfig{
		Hosts: hosts, Receiver: rcv, TCP: tcp.DefaultConfig(tcp.Reno),
	})
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Senders {
		if s.Stats().SegmentsSent == 0 {
			t.Fatalf("sender %d has sent nothing at t = 0", i)
		}
	}
	if err := e.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if w.TotalAcked() == 0 {
		t.Fatal("no progress without jitter")
	}
}

func TestQueryRunnerCompletesAllRounds(t *testing.T) {
	e, hosts, rcv, _ := star(t, 4, 1*netsim.Gbps, 400, aqm.NewSingleThresholdPackets(40, 1500))
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 64 << 10,
		Rounds:         5,
		Gap:            time.Millisecond,
		TCP:            tcp.DefaultConfig(tcp.DCTCP),
	})
	if err := e.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatalf("queries incomplete: %d rounds", len(q.Rounds()))
	}
	if len(q.Rounds()) != 5 {
		t.Fatalf("rounds = %d, want 5", len(q.Rounds()))
	}
	for i, r := range q.Rounds() {
		if r.End <= r.Start {
			t.Fatalf("round %d has non-positive duration", i)
		}
		// 4 workers × 64 KB at 1 Gbps needs ≥ 2.1 ms.
		if r.Completion() < 2*time.Millisecond {
			t.Fatalf("round %d completed impossibly fast: %v", i, r.Completion())
		}
	}
	if got := len(q.CompletionTimes()); got != 5 {
		t.Fatalf("CompletionTimes len = %d", got)
	}
	gps := q.GoodputsBps()
	for _, g := range gps {
		if g <= 0 || g > 1e9 {
			t.Fatalf("goodput %v out of range", g)
		}
	}
}

func TestQueryRunnerCleansUpEndpoints(t *testing.T) {
	e, hosts, rcv, _ := star(t, 2, 1*netsim.Gbps, 400, nil)
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 8 << 10,
		Rounds:         3,
		TCP:            tcp.DefaultConfig(tcp.Reno),
	})
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("queries incomplete")
	}
	// All flows were unregistered: replaying one of the old flow IDs at
	// the aggregator must count as unknown.
	pkt := &netsim.Packet{Flow: 0, Dst: rcv.ID(), Size: 1500}
	hosts[0].Send(pkt)
	if err := e.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rcv.DroppedNoFlow() != 1 {
		t.Fatalf("DroppedNoFlow = %d, want 1 (endpoints leaked?)", rcv.DroppedNoFlow())
	}
}

func TestQueryRunnerSequentialRoundsDoNotOverlap(t *testing.T) {
	e, hosts, rcv, _ := star(t, 3, 1*netsim.Gbps, 400, nil)
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 16 << 10,
		Rounds:         4,
		Gap:            500 * time.Microsecond,
		TCP:            tcp.DefaultConfig(tcp.Reno),
	})
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	rounds := q.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d", len(rounds))
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Start < rounds[i-1].End {
			t.Fatalf("round %d started before round %d ended", i, i-1)
		}
		gap := (rounds[i].Start - rounds[i-1].End).Duration()
		if gap < 500*time.Microsecond {
			t.Fatalf("gap %v < configured 500µs", gap)
		}
	}
}

func TestQueryRunnerIncastCollapseVisibleWithTinyBuffer(t *testing.T) {
	// 24 workers bursting IW3 into a 32-packet buffer must drop and take
	// timeouts, stretching completion far beyond the ideal.
	e, hosts, rcv, bneck := star(t, 24, 1*netsim.Gbps, 32, nil)
	cfg := tcp.DefaultConfig(tcp.Reno)
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 64 << 10,
		Rounds:         2,
		Gap:            time.Millisecond,
		TCP:            cfg,
	})
	if err := e.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("incast rounds incomplete")
	}
	if bneck.Stats().DroppedOverflow == 0 {
		t.Fatal("expected overflow drops in incast")
	}
	if timeouts, _ := q.Losses(); timeouts == 0 {
		t.Fatal("expected RTO timeouts in incast")
	}
	// Ideal time: 24·64 KB at 1 Gbps ≈ 12.6 ms; a 200 ms RTO dominates.
	if q.Rounds()[0].Completion() < 100*time.Millisecond {
		t.Fatalf("completion %v does not show collapse", q.Rounds()[0].Completion())
	}
}

func TestQueryRunnerZeroRounds(t *testing.T) {
	e, hosts, rcv, _ := star(t, 1, 1*netsim.Gbps, 100, nil)
	q := StartQueries(e, QueryConfig{
		Workers: hosts, Aggregator: rcv, BytesPerWorker: 1000,
		TCP: tcp.DefaultConfig(tcp.Reno),
	})
	if !q.Done() {
		t.Fatal("zero-round config should be done immediately")
	}
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRunnerPersistentWithDeadlineAndJitter(t *testing.T) {
	e, hosts, rcv, _ := star(t, 3, 1*netsim.Gbps, 400, aqm.NewSingleThresholdPackets(40, 1500))
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 32 << 10,
		Rounds:         4,
		Gap:            200 * time.Microsecond,
		TCP:            tcp.DefaultConfig(tcp.D2TCP),
		Persistent:     true,
		Deadline:       50 * time.Millisecond, // generous: no misses
		StartJitter:    20 * time.Microsecond,
	})
	if err := e.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatalf("incomplete: %d rounds", len(q.Rounds()))
	}
	if got := q.TotalMissedDeadlines(); got != 0 {
		t.Fatalf("missed %d deadlines with a 50 ms budget", got)
	}
	// Persistent mode consumes exactly one flow-ID set: replaying the
	// base flow at the aggregator must be unknown after the final round.
	pkt := &netsim.Packet{Flow: 0, Dst: rcv.ID(), Size: 1500}
	hosts[0].Send(pkt)
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rcv.DroppedNoFlow() != 1 {
		t.Fatal("persistent endpoints not unregistered after the final round")
	}
}

func TestQueryRunnerImpossibleDeadlineCountsAllMisses(t *testing.T) {
	e, hosts, rcv, _ := star(t, 2, 1*netsim.Gbps, 400, nil)
	q := StartQueries(e, QueryConfig{
		Workers:        hosts,
		Aggregator:     rcv,
		BytesPerWorker: 16 << 10,
		Rounds:         3,
		TCP:            tcp.DefaultConfig(tcp.DCTCP),
		Deadline:       time.Nanosecond,
	})
	if err := e.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("incomplete")
	}
	if got := q.TotalMissedDeadlines(); got != 3*2 {
		t.Fatalf("missed %d, want every one of 6", got)
	}
	for _, r := range q.Rounds() {
		if r.MissedDeadlines != 2 {
			t.Fatalf("round misses = %d, want 2", r.MissedDeadlines)
		}
	}
}
