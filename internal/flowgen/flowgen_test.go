package flowgen

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

func testFabric(t *testing.T, seed int64) (*sim.Engine, *topo.Fabric) {
	t.Helper()
	e := sim.NewEngine(seed)
	return e, testFabricOn(t, e)
}

// testFabricOn builds the 2×2×2 leaf-spine on e.
func testFabricOn(t *testing.T, e *sim.Engine) *topo.Fabric {
	t.Helper()
	f, err := topo.LeafSpine(netsim.NewNetwork(e), 2, 2, 2, topo.Config{
		HostLink:   topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
		FabricLink: topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 256 * 1500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testConfig(t *testing.T, f *topo.Fabric, flows int) Config {
	t.Helper()
	cdf, err := BuiltinCDF(WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		CDF:         cdf,
		Load:        0.3,
		CapacityBps: f.BisectionBps(),
		Flows:       flows,
		TCP:         tcp.DefaultConfig(tcp.DCTCP),
	}
}

func TestStartValidates(t *testing.T) {
	_, f := testFabric(t, 1)
	good := testConfig(t, f, 10)
	for name, mutate := range map[string]func(*Config){
		"nil cdf":       func(c *Config) { c.CDF = nil },
		"zero flows":    func(c *Config) { c.Flows = 0 },
		"zero load":     func(c *Config) { c.Load = 0 },
		"zero capacity": func(c *Config) { c.CapacityBps = 0 },
		// Once a panic in the engine: the arrival instants overflowed
		// virtual time. An infinite load put every arrival at t = 0.
		"NaN load":                 func(c *Config) { c.Load = math.NaN() },
		"infinite load":            func(c *Config) { c.Load = math.Inf(1) },
		"arrivals past the bound":  func(c *Config) { c.Load = 1e-300 },
		"last arrival past it too": func(c *Config) { c.Load, c.Flows = 1e-12, 1000 },
	} {
		bad := good
		mutate(&bad)
		if _, err := Start(f.Hosts, bad); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.HasPrefix(err.Error(), "flowgen: ") {
			t.Errorf("%s: refusal %q has no flowgen: prefix", name, err)
		}
	}
	if _, err := Start(f.Hosts[:1], good); err == nil {
		t.Error("single host accepted")
	}
}

// TestWorkloadCompletes runs a short trace end to end: every flow must
// finish, carry a positive FCT, and appear in exactly one bucket.
func TestWorkloadCompletes(t *testing.T) {
	e, f := testFabric(t, 2)
	w, err := Start(f.Hosts, testConfig(t, f, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := w.Completed(); got != 40 {
		t.Fatalf("completed %d/40 flows", got)
	}
	for i := range w.Flows {
		fl := &w.Flows[i]
		fct, done := (fl.fct - fl.Arrival).Duration(), fl.done
		if !done || fct <= 0 {
			t.Fatalf("flow %d: done=%v fct=%v", i, done, fct)
		}
	}
	stats := w.FCTStats(10000, 500000)
	total := 0
	for _, b := range stats {
		total += b.Flows
		if b.Completed != b.Flows {
			t.Fatalf("bucket %s: %d/%d completed", b.Bucket, b.Completed, b.Flows)
		}
		if b.Completed > 0 && (b.P50Seconds <= 0 || b.P99Seconds < b.P50Seconds) {
			t.Fatalf("bucket %s: implausible percentiles %+v", b.Bucket, b)
		}
	}
	if total != 40 {
		t.Fatalf("buckets hold %d flows, want 40", total)
	}
	w.Cleanup()
	// After cleanup every endpoint table must be empty again.
	for _, h := range f.Hosts {
		pkt := h.Network().AllocPacket()
		pkt.Flow = 1
		pkt.Dst = h.ID()
		before := h.DroppedNoFlow()
		h.Receive(pkt)
		if h.DroppedNoFlow() != before+1 {
			t.Fatalf("host %s still owns flow 1 after Cleanup", h.Name())
		}
		break
	}
}

// TestDigestIsSeedDeterministic pins the reproducibility contract: same
// seed → identical digest, different seed → different trace.
func TestDigestIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) uint64 {
		e, f := testFabric(t, seed)
		w, err := Start(f.Hosts, testConfig(t, f, 30))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	if run(5) != run(5) {
		t.Fatal("same seed produced different digests")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestMatrices(t *testing.T) {
	_, f := testFabric(t, 3)
	n := len(f.Hosts)

	cfg := testConfig(t, f, 200)
	cfg.Matrix = Permutation
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each source always maps to the same destination, never itself.
	image := make(map[int32]int32)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Src == fl.Dst {
			t.Fatal("permutation produced a self-flow")
		}
		if prev, seen := image[fl.Src]; seen && prev != fl.Dst {
			t.Fatalf("source %d maps to both %d and %d", fl.Src, prev, fl.Dst)
		}
		image[fl.Src] = fl.Dst
	}
	w.Cleanup()

	cfg = testConfig(t, f, 200)
	cfg.Matrix = Incast
	w, err = Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := w.Flows[0].Dst
	srcs := make(map[int32]bool)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Dst != agg || fl.Src == agg {
			t.Fatalf("incast flow %d: %d → %d (aggregator %d)", i, fl.Src, fl.Dst, agg)
		}
		srcs[fl.Src] = true
	}
	if len(srcs) != n-1 {
		t.Fatalf("incast drew %d distinct sources, want %d", len(srcs), n-1)
	}
	w.Cleanup()

	cfg = testConfig(t, f, 200)
	cfg.Matrix = Random
	w, err = Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsts := make(map[int32]bool)
	for i := range w.Flows {
		fl := &w.Flows[i]
		if fl.Src == fl.Dst {
			t.Fatal("random matrix produced a self-flow")
		}
		dsts[fl.Dst] = true
	}
	if len(dsts) < n/2 {
		t.Fatalf("random matrix used only %d destinations", len(dsts))
	}
	w.Cleanup()
}

func TestParseMatrix(t *testing.T) {
	for _, s := range []string{"random", "permutation", "incast"} {
		m, err := ParseMatrix(s)
		if err != nil || m.String() != s {
			t.Fatalf("round trip %q → %v, %v", s, m, err)
		}
	}
	if _, err := ParseMatrix("all-to-all"); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

// TestArrivalRateMatchesLoad checks the open-loop arrival process: over
// a long trace the mean interarrival must approximate
// CDF.Mean() / (Load · Capacity).
func TestArrivalRateMatchesLoad(t *testing.T) {
	_, f := testFabric(t, 4)
	cfg := testConfig(t, f, 5000)
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := w.LastArrival().Seconds()
	want := float64(cfg.Flows) * cfg.CDF.Mean() / (cfg.Load * cfg.CapacityBps)
	if span < 0.9*want || span > 1.1*want {
		t.Fatalf("trace spans %.3fs, want ≈ %.3fs for load %.2f", span, want, cfg.Load)
	}
	w.Cleanup()
}

func TestRecordFCT(t *testing.T) {
	e, f := testFabric(t, 9)
	w, err := Start(f.Hosts, testConfig(t, f, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(w.LastArrival().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	w.RecordFCT(reg, 10000, 500000)
	snap := reg.Snapshot(e.Now().Seconds())
	found, observed := 0, uint64(0)
	for _, m := range snap.Metrics {
		if m.Name == "flowgen_fct_seconds" {
			found++
			if m.Hist == nil {
				t.Fatalf("FCT metric without histogram: %+v", m)
			}
			observed += m.Hist.Count
		}
	}
	if found != 3 {
		t.Fatalf("snapshot carries %d FCT histograms, want 3", found)
	}
	if observed != 30 {
		t.Fatalf("histograms hold %d observations, want 30", observed)
	}
	w.Cleanup()
}

// TestStartQueuesOneArrivalPerWheel pins the arrival chain's footprint:
// however long the trace, Start leaves one pending event on the event
// wheel, and the chain behind it still starts every flow.
func TestStartQueuesOneArrivalPerWheel(t *testing.T) {
	e, f := testFabric(t, 7)
	w, err := Start(f.Hosts, testConfig(t, f, 60))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("%d events pending after Start, want 1", got)
	}
	if err := e.RunUntil(w.LastArrival().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := w.Completed(); got != 60 {
		t.Fatalf("completed %d/60 flows", got)
	}
	w.Cleanup()
}

// firstSends records, across every port it is attached to, the order in
// which flows first put a packet on the wire.
type firstSends struct {
	seen  map[netsim.FlowID]bool
	order []netsim.FlowID
}

func (r *firstSends) PacketEnqueued(_ sim.Time, pkt *netsim.Packet, _ int, _ bool) {
	if !r.seen[pkt.Flow] {
		r.seen[pkt.Flow] = true
		r.order = append(r.order, pkt.Flow)
	}
}
func (r *firstSends) PacketDequeued(sim.Time, *netsim.Packet, int)      {}
func (r *firstSends) PacketDropped(sim.Time, *netsim.Packet, int, bool) {}

// TestSameInstantArrivalsStartInTraceOrder offers a load so large that
// every interarrival gap rounds to 0 ns. The whole trace then shares one
// key up to the sequence number, and only the chain — each arrival queued
// by the one before it — keeps the senders starting in trace order.
func TestSameInstantArrivalsStartInTraceOrder(t *testing.T) {
	e, f := testFabric(t, 11)
	cfg := testConfig(t, f, 60)
	cfg.Load = 1e15
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Flows {
		if w.Flows[i].Arrival != w.Flows[0].Arrival {
			t.Fatalf("flow %d arrives at %v, flow 0 at %v: the load does not collapse the trace", i, w.Flows[i].Arrival, w.Flows[0].Arrival)
		}
	}
	rec := &firstSends{seen: make(map[netsim.FlowID]bool)}
	for _, h := range f.Hosts {
		h.Uplink().SetTracer(rec)
	}
	if err := e.RunUntil(w.LastArrival()); err != nil {
		t.Fatal(err)
	}
	if len(rec.order) != len(w.Flows) {
		t.Fatalf("%d flows sent by the arrival instant, want all %d", len(rec.order), len(w.Flows))
	}
	for i, id := range rec.order {
		if id != netsim.FlowID(1+i) {
			t.Fatalf("sender %d to start was flow %d, want trace order (flow %d)", i, id, 1+i)
		}
	}
	w.Cleanup()
}

// TestArrivalSortsAheadOfRunTimeEvents pins the key a chained arrival
// carries. An event scheduled at run time — here 1 ns before the first
// arrival, earlier than anything the chain itself does — for the exact
// instant of the second arrival must still run after it, as it did when
// Start queued every arrival up front at virtual time zero.
func TestArrivalSortsAheadOfRunTimeEvents(t *testing.T) {
	e, f := testFabric(t, 12)
	cfg := testConfig(t, f, 2)
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, second := w.Flows[0].Arrival, w.Flows[1].Arrival
	if second <= first {
		t.Fatalf("arrivals at %v and %v: the probe needs a gap", first, second)
	}
	rec := &firstSends{seen: make(map[netsim.FlowID]bool)}
	for _, h := range f.Hosts {
		h.Uplink().SetTracer(rec)
	}
	probed := false
	e.Schedule(first-1, func() {
		e.Schedule(second, func() {
			probed = true
			if !rec.seen[2] {
				t.Error("an event scheduled at run time ran before the arrival sharing its instant")
			}
		})
	})
	if err := e.RunUntil(second); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("probe never ran")
	}
	w.Cleanup()
}

// TestSendersBoundedByOpenFlows pins what lazy, recycled senders buy: on
// a k=4 fat-tree trace a source host constructs as many senders as it
// ever had flows open at once — not one per flow of the trace.
func TestSendersBoundedByOpenFlows(t *testing.T) {
	const flows = 600
	e := sim.NewEngine(5)
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	f, err := topo.FatTree(netsim.NewNetwork(e), 4, topo.Config{HostLink: link, FabricLink: link})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, f, flows)
	cfg.Load = 0.6
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	end := w.LastArrival().Add(2 * time.Second)
	if err := e.RunUntil(end); err != nil {
		t.Fatal(err)
	}
	if got := w.Completed(); got != flows {
		t.Fatalf("completed %d/%d flows", got, flows)
	}

	// Peak of concurrently open flows per source host.
	edges := make([][]edge, len(f.Hosts))
	for i := range w.Flows {
		fl := &w.Flows[i]
		edges[fl.Src] = append(edges[fl.Src], edge{fl.Arrival, +1}, edge{fl.fct, -1})
	}
	total, totalPeak := 0, 0
	for h, es := range edges {
		peak := peakOpen(es)
		// Every flow is complete, so every sender the host ever
		// constructed is back on its free list.
		built := len(w.local[h].senders)
		if built > peak {
			t.Errorf("host %d constructed %d senders, never had more than %d flows open", h, built, peak)
		}
		total += built
		totalPeak += peak
	}
	if total == 0 || total*4 > flows {
		t.Errorf("%d senders constructed for %d flows (peaks sum to %d): recycling is not engaging", total, flows, totalPeak)
	}
	t.Logf("%d senders for %d flows", total, flows)
	// The host NICs drop at this load, so the receivers reassemble.
	if w.TotalOutOfOrder() == 0 {
		t.Fatal("no out-of-order segment: the receivers never reassembled")
	}
	w.Cleanup()
}

// lifetimes reconstructs, from the ACKs one destination host puts on its
// uplink, when each receiver on it was open. With AckEvery = 1 every
// segment a receiver is handed is ACKed at once, so a flow's first ACK is
// sent at the instant its receiver opens, its first ACK of the whole
// transfer at the instant it closes, and every later one at an instant it
// was resumed from TIME_WAIT and closed again.
type lifetimes struct {
	w     *Workload
	seen  map[netsim.FlowID]bool
	acked map[netsim.FlowID]bool
	edges []edge
}

// edge is one end of an open interval: open is +1 at an opening, −1 at a
// closing.
type edge struct {
	at   sim.Time
	open int
}

func (l *lifetimes) PacketEnqueued(now sim.Time, pkt *netsim.Packet, _ int, _ bool) { l.ack(now, pkt) }
func (l *lifetimes) PacketDropped(now sim.Time, pkt *netsim.Packet, _ int, _ bool)  { l.ack(now, pkt) }
func (l *lifetimes) PacketDequeued(sim.Time, *netsim.Packet, int)                   {}

func (l *lifetimes) ack(now sim.Time, pkt *netsim.Packet) {
	if !pkt.IsAck {
		return
	}
	if !l.seen[pkt.Flow] {
		l.seen[pkt.Flow] = true
		l.edges = append(l.edges, edge{now, +1})
	} else if l.acked[pkt.Flow] {
		l.edges = append(l.edges, edge{now, +1}) // resumed from TIME_WAIT
	}
	if pkt.Ack == l.w.Flows[pkt.Flow-1].Size {
		l.acked[pkt.Flow] = true
		l.edges = append(l.edges, edge{now, -1})
	}
}

// peakOpen returns the most intervals open at once, an opening counted
// before a closing at the same instant.
func peakOpen(es []edge) int {
	sort.Slice(es, func(i, j int) bool {
		if es[i].at != es[j].at {
			return es[i].at < es[j].at
		}
		return es[i].open > es[j].open
	})
	open, peak := 0, 0
	for _, e := range es {
		if open += e.open; open > peak {
			peak = open
		}
	}
	return peak
}

// TestReceiversBoundedByOpenFlows is TestSendersBoundedByOpenFlows for the
// other end: a destination host constructs
// as many receivers as it ever had open at once, and its flow table is
// sized by the connections it had open, not by the flows of the trace.
// Late duplicates resume receivers from TIME_WAIT on the way.
func TestReceiversBoundedByOpenFlows(t *testing.T) {
	const flows = 600
	e := sim.NewEngine(5)
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	f, err := topo.FatTree(netsim.NewNetwork(e), 4, topo.Config{HostLink: link, FabricLink: link})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, f, flows)
	cfg.Load = 0.6
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*lifetimes, len(f.Hosts))
	for i, h := range f.Hosts {
		traces[i] = &lifetimes{w: w, seen: map[netsim.FlowID]bool{}, acked: map[netsim.FlowID]bool{}}
		h.Uplink().SetTracer(traces[i])
	}
	if err := e.RunUntil(w.LastArrival().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := w.Completed(); got != flows {
		t.Fatalf("completed %d/%d flows", got, flows)
	}

	received := make([]int, len(f.Hosts))
	for i := range w.Flows {
		received[w.Flows[i].Dst]++
	}
	total := 0
	for h, tr := range traces {
		if len(tr.seen) != received[h] || len(tr.acked) != received[h] {
			t.Fatalf("host %d ACKed %d flows, completed %d, of the %d it received", h, len(tr.seen), len(tr.acked), received[h])
		}
		// Every receiver has closed, so every one the host ever
		// constructed is back on its list.
		built, peak := len(w.local[h].receivers), peakOpen(tr.edges)
		if built > peak {
			t.Errorf("host %d constructed %d receivers, never had more than %d open", h, built, peak)
		}
		senders := len(w.local[h].senders)
		if capacity := f.Hosts[h].EndpointCapacity(); capacity > max(4, 2*(built+senders)) {
			t.Errorf("host %d's flow table holds %d endpoints, for at most %d open at once (%d flows received)",
				h, capacity, built+senders, received[h])
		}
		total += built
	}
	if total == 0 || total*4 > flows {
		t.Errorf("%d receivers constructed for %d flows: recycling is not engaging", total, flows)
	}
	t.Logf("%d receivers for %d flows, %d late duplicates", total, flows, w.LateDuplicates())
	w.Cleanup()
}

// TestFlowRecordSize pins the bytes every trace entry costs for the whole
// run: the TIME_WAIT record rides in the space the connection id and the
// narrowed counters gave up, and 32-bit host indices keep it at 80 B.
func TestFlowRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Flow{}); got > 80 {
		t.Fatalf("Flow is %d B, want at most 80", got)
	}
}

// TestCleanupClearsListeners: after Cleanup no host calls into the
// finished workload — a segment of one of its flows is refused at its
// destination like any unknown flow's — and the hosts carry a new
// workload.
func TestCleanupClearsListeners(t *testing.T) {
	e, f := testFabric(t, 13)
	w, err := Start(f.Hosts, testConfig(t, f, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(w.LastArrival().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	w.Cleanup()
	for i := range w.Flows {
		dst := f.Hosts[w.Flows[i].Dst]
		before := dst.DroppedNoFlow()
		dst.Receive(&netsim.Packet{Flow: netsim.FlowID(1 + i), PayloadLen: 1460, Size: 1500, Dst: dst.ID()})
		if dst.DroppedNoFlow() != before+1 {
			t.Fatalf("flow %d's segment was not refused after Cleanup", 1+i)
		}
	}
	for i := range w.Flows {
		if w.Flows[i].receiver != nil {
			t.Fatalf("flow %d's receiver is open after Cleanup", 1+i)
		}
	}
	cfg := testConfig(t, f, 20)
	again, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(again.LastArrival().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := again.Completed(); got != 20 {
		t.Fatalf("the second workload completed %d/20 flows", got)
	}
	again.Cleanup()
}
