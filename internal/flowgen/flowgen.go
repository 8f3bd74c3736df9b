package flowgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/tcp"
)

// Matrix selects how flow endpoints are drawn.
type Matrix int

const (
	// Random draws an independent source and destination per flow.
	Random Matrix = iota
	// Permutation fixes one derangement of the hosts at setup; every
	// flow goes from a random host to its image, so each host receives
	// from exactly one peer.
	Permutation
	// Incast directs every flow at one aggregator host drawn at setup,
	// from a random other host.
	Incast
)

// ParseMatrix maps the CLI names onto Matrix values.
func ParseMatrix(s string) (Matrix, error) {
	switch s {
	case "random":
		return Random, nil
	case "permutation":
		return Permutation, nil
	case "incast":
		return Incast, nil
	}
	return 0, fmt.Errorf("flowgen: unknown traffic matrix %q (random, permutation, incast)", s)
}

func (m Matrix) String() string {
	switch m {
	case Random:
		return "random"
	case Permutation:
		return "permutation"
	case Incast:
		return "incast"
	}
	return fmt.Sprintf("Matrix(%d)", int(m))
}

// Config parameterizes one trace-driven workload.
type Config struct {
	// CDF is the flow-size distribution.
	CDF *CDF
	// Load is the offered load as a fraction of CapacityBps; the Poisson
	// arrival rate is Load·CapacityBps/CDF.Mean() flows per second.
	Load float64
	// CapacityBps is the capacity the load targets in bytes per second —
	// conventionally the fabric's bisection bandwidth.
	CapacityBps float64
	// Flows is the trace length.
	Flows int
	// Matrix is the endpoint pattern (default Random).
	Matrix Matrix
	// TCP configures every connection; each flow opens a fresh
	// connection in slow start (the fresh-connection churn path — no
	// congestion state survives between flows, though a source host
	// reuses the storage of its finished connections).
	TCP tcp.Config
}

// baseFlow is the first flow ID; a workload consumes Flows consecutive
// IDs from it.
const baseFlow netsim.FlowID = 1

// maxArrival bounds the trace: half the representable virtual time
// (about 146 years), leaving the other half for the transfers that
// start last and for the run's drain.
const maxArrival = sim.Time(math.MaxInt64 / 2)

// Flow is one trace entry with its measured outcome. Its connection id is
// baseFlow plus its index in Workload.Flows.
type Flow struct {
	// Src and Dst index the workload's host slice.
	Src, Dst int32
	// Size is the transfer size in bytes.
	Size int64
	// Arrival is the flow's open-loop start instant.
	Arrival sim.Time

	// fct is the completion instant; done guards it. timeouts and retx
	// are the sender's counts at that instant. All four are written by
	// the sender's OnComplete.
	fct            sim.Time
	timeouts, retx uint32
	// sender is the flow's sender while it is open: nil before the
	// arrival and after completion.
	sender *tcp.Sender
	// receiver is the flow's receiver while it is open: nil before the
	// first segment reaches the destination and after the receiver has
	// acknowledged every byte. Once closed is set, tw is the TIME_WAIT
	// record the receiver last closed to.
	receiver *tcp.Receiver
	tw       tcp.TimeWait
	closed   bool // the receiver's, beside the sender's done
	done     bool
}

// Workload is a started trace: its first arrival is queued and the
// workload listens on every host; run the engine to execute it. A flow's
// sender opens at its arrival and its receiver at its first segment.
type Workload struct {
	// Flows is the generated trace in arrival order.
	Flows []Flow

	hosts []*netsim.Host
	cfg   Config
	// arriveFn, completeFn and retireFn are arrive, complete and retire
	// bound once, so neither an arrival nor a connection allocates a
	// closure.
	arriveFn   func(any)
	completeFn func(*tcp.Sender, sim.Time)
	retireFn   func(*tcp.Receiver)
	// local holds each host's share of the workload.
	local []hostLocal
}

// hostLocal is one host's connection storage between flows, last retired
// first: the senders of its completed flows and the receivers of flows
// to it that have acknowledged every byte. With every flow complete that
// is all the storage the host ever constructed — at most its peak of
// concurrently open connections of each kind. resumed counts the segments
// the host answered from a flow's TIME_WAIT record.
type hostLocal struct {
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
	resumed   uint64
}

// chain is the arrival chain: the index of the flow whose arrival is
// queued.
type chain struct{ flow int32 }

// Start generates the trace and wires it onto hosts. All randomness —
// sizes, interarrivals, endpoint choices — is drawn here, from the
// network construction engine's seeded source, so the trace is a pure
// function of the run seed. Start builds no connection.
//
// Arrivals are a chain, not one queued event per flow: Start queues the
// first arrival and every arrival queues the next (see arrive), so the
// pending set holds what is in flight and not the rest of the trace.
//
// Each flow is a fresh connection in slow start, and each end of it lives
// while the flow does, on its own host. The sender opens at the arrival
// and retires at completion. The receiver opens when the
// flow's first segment reaches the destination — the workload is every
// host's listener (accept) — and closes once it has acknowledged every
// byte, to a TIME_WAIT record from which it resumes to re-ACK a late
// duplicate, as a real host does. A retired end is unregistered and its
// storage kept for the host's next flow, so a host holds as many
// connections of each kind as it ever had open at once. Start makes the
// workload the listener of every host; Cleanup clears them.
func Start(hosts []*netsim.Host, cfg Config) (*Workload, error) {
	n := len(hosts)
	switch {
	case n < 2:
		return nil, fmt.Errorf("flowgen: need at least 2 hosts, got %d", n)
	case cfg.CDF == nil:
		return nil, fmt.Errorf("flowgen: no CDF")
	case cfg.Flows < 1:
		return nil, fmt.Errorf("flowgen: need at least 1 flow")
	case cfg.Flows > math.MaxInt32:
		return nil, fmt.Errorf("flowgen: at most %d flows, got %d", math.MaxInt32, cfg.Flows)
	case cfg.Load <= 0:
		return nil, fmt.Errorf("flowgen: load must be positive")
	case math.IsNaN(cfg.Load) || math.IsInf(cfg.Load, 0):
		return nil, fmt.Errorf("flowgen: load %g is not finite", cfg.Load)
	case cfg.CapacityBps <= 0:
		return nil, fmt.Errorf("flowgen: capacity must be positive")
	}
	w := &Workload{hosts: hosts, cfg: cfg, local: make([]hostLocal, n)}
	eng := hosts[0].Network().Engine()
	rng := eng.Rand()

	// Endpoint pattern state drawn before the per-flow stream.
	var perm []int
	aggregator := 0
	switch cfg.Matrix {
	case Permutation:
		perm = derangement(rng, n)
	case Incast:
		aggregator = rng.Intn(n)
	}

	// flows/sec such that mean_size · rate = Load · CapacityBps. The
	// trace starts at the engine's clock.
	lambda := cfg.Load * cfg.CapacityBps / cfg.CDF.Mean()
	at := eng.Now()
	w.Flows = make([]Flow, cfg.Flows)
	for i := range w.Flows {
		gap := rng.ExpFloat64() / lambda * 1e9
		if !(gap < float64(maxArrival-at)) {
			return nil, fmt.Errorf("flowgen: load %g puts flow %d of %d past %v of virtual time", cfg.Load, i+1, cfg.Flows, maxArrival.Duration())
		}
		at = at.Add(time.Duration(gap))
		f := &w.Flows[i]
		f.Arrival = at
		f.Size = cfg.CDF.Sample(rng)
		switch cfg.Matrix {
		case Permutation:
			f.Src = int32(rng.Intn(n))
			f.Dst = int32(perm[f.Src])
		case Incast:
			f.Dst = int32(aggregator)
			f.Src = int32(otherThan(rng, n, aggregator))
		default:
			f.Src = int32(rng.Intn(n))
			f.Dst = int32(otherThan(rng, n, int(f.Src)))
		}
	}

	w.arriveFn = w.arrive
	w.completeFn = w.complete
	w.retireFn = w.retire
	eng.InjectArg(w.Flows[0].Arrival, w.arriveFn, &chain{})
	accept := netsim.Listener(w.accept)
	for _, h := range hosts {
		h.Listen(accept)
	}
	return w, nil
}

// arrive is the start event of one flow: it opens and starts the sender
// and queues the next arrival. Every arrival is stamped schedAt =
// TimeZero, the key an up-front Schedule at set-up gave it, so
// it still sorts ahead of every same-instant event scheduled at run time;
// arrivals on one instant keep trace order because each is queued by the
// one before it.
//
// The sender is the source host's last retired one, reopened, or a new
// one when the host has none to spare (or Reopen refuses the storage).
// Either way it is what tcp.NewSender builds, and building it draws no
// randomness and schedules nothing, so when it is built is not observable.
//
//dtlint:hotpath
func (w *Workload) arrive(arg any) {
	c := arg.(*chain)
	f := &w.Flows[c.flow]
	id := baseFlow + netsim.FlowID(c.flow)
	src, peer := w.hosts[f.Src], w.hosts[f.Dst].ID()
	local := &w.local[f.Src]
	var s *tcp.Sender
	if n := len(local.senders); n > 0 {
		s = local.senders[n-1]
		local.senders = local.senders[:n-1]
		if !s.Reopen(src, id, peer, f.Size, w.cfg.TCP) {
			s = nil
		}
	}
	if s == nil {
		s = tcp.NewSender(src, id, peer, f.Size, w.cfg.TCP)
	}
	s.OnComplete = w.completeFn
	f.sender = s
	s.Start()
	if next := c.flow + 1; int(next) < len(w.Flows) {
		c.flow = next
		src.Engine().InjectArg(w.Flows[next].Arrival, w.arriveFn, c)
	}
}

// complete is every sender's OnComplete: it records the flow's outcome
// and retires the sender — off its host's table, onto the host's list —
// on the source host's wheel.
//
//dtlint:hotpath
func (w *Workload) complete(s *tcp.Sender, now sim.Time) {
	f := &w.Flows[s.Flow()-baseFlow]
	st := s.Stats()
	f.fct, f.done = now, true
	f.timeouts, f.retx = uint32(st.Timeouts), uint32(st.Retransmissions)
	f.sender = nil
	w.hosts[f.Src].Unregister(s.Flow())
	local := &w.local[f.Src]
	//dtlint:allow hotalloc: the list grows to the host's peak of open flows and stays there
	local.senders = append(local.senders, s)
}

// accept is every host's passive open (its netsim.Listener). A data
// segment of one of the workload's flows, at that flow's destination,
// opens the flow's receiver there, resumed from its TIME_WAIT record if
// it has closed before; anything else — an ACK for a retired sender, a
// packet of another workload — is refused. The storage is the
// destination's last closed receiver, reopened, or a new one; like a
// sender's, building it draws no randomness and schedules nothing.
//
//dtlint:hotpath
func (w *Workload) accept(h *netsim.Host, pkt *netsim.Packet) netsim.Endpoint {
	i := uint64(pkt.Flow - baseFlow)
	if pkt.IsAck || i >= uint64(len(w.Flows)) {
		return nil
	}
	f := &w.Flows[i]
	if w.hosts[f.Dst] != h {
		return nil
	}
	peer := w.hosts[f.Src].ID()
	local := &w.local[f.Dst]
	var r *tcp.Receiver
	if n := len(local.receivers); n > 0 {
		r = local.receivers[n-1]
		local.receivers = local.receivers[:n-1]
		if !r.Reopen(h, pkt.Flow, peer, w.cfg.TCP) {
			r = nil
		}
	}
	if r == nil {
		r = tcp.NewReceiver(h, pkt.Flow, peer, w.cfg.TCP)
	}
	r.Expect(f.Size, w.retireFn)
	if f.closed {
		r.Resume(f.tw)
		local.resumed++
	}
	f.receiver = r
	return r
}

// retire is every receiver's completion handler: it closes the receiver
// to the flow's TIME_WAIT record and keeps its storage for the
// destination's next flow, on the destination host's wheel.
//
//dtlint:hotpath
func (w *Workload) retire(r *tcp.Receiver) {
	f := &w.Flows[r.Flow()-baseFlow]
	f.tw, f.closed = r.Close(), true
	f.receiver = nil
	local := &w.local[f.Dst]
	//dtlint:allow hotalloc: the list grows to the host's peak of open receivers and stays there
	local.receivers = append(local.receivers, r)
}

// derangement returns a uniform-ish permutation of [0, n) with no fixed
// points: a Fisher–Yates draw repaired by swapping any fixed point with
// its neighbor.
func derangement(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	for i := range p {
		if p[i] == i {
			j := (i + 1) % n
			p[i], p[j] = p[j], p[i]
		}
	}
	return p
}

// otherThan draws uniformly from [0, n) excluding skip.
func otherThan(rng *rand.Rand, n, skip int) int {
	v := rng.Intn(n - 1)
	if v >= skip {
		v++
	}
	return v
}

// Completed counts finished flows.
func (w *Workload) Completed() int {
	done := 0
	for i := range w.Flows {
		if w.Flows[i].done {
			done++
		}
	}
	return done
}

// LastArrival returns the final flow's start instant; running the
// engine well past it (plus a drain margin) completes the trace.
func (w *Workload) LastArrival() sim.Time { return w.Flows[len(w.Flows)-1].Arrival }

// Losses sums RTO firings and retransmitted segments over all
// connections: the counts recorded at completion plus those of the flows
// still open.
func (w *Workload) Losses() (timeouts, retransmissions uint64) {
	for i := range w.Flows {
		f := &w.Flows[i]
		timeouts += uint64(f.timeouts)
		retransmissions += uint64(f.retx)
		if f.sender != nil {
			st := f.sender.Stats()
			timeouts += st.Timeouts
			retransmissions += st.Retransmissions
		}
	}
	return timeouts, retransmissions
}

// TotalTimeouts is the first half of Losses, kept for the benchmark
// ledger's fabric mirror (benchmarks/workloads.go), which calls it.
func (w *Workload) TotalTimeouts() uint64 { t, _ := w.Losses(); return t }

// TotalRetransmissions is the second half of Losses, kept for the same
// caller.
func (w *Workload) TotalRetransmissions() uint64 { _, r := w.Losses(); return r }

// TotalOutOfOrder sums, over every receiver, the segments that arrived
// beyond the receiver's cumulative ACK point and were buffered: the loss
// and reordering the fabric made the receivers reassemble.
func (w *Workload) TotalOutOfOrder() uint64 {
	var total uint64
	for i := range w.Flows {
		f := &w.Flows[i]
		if f.receiver != nil {
			total += f.receiver.Stats().OutOfOrder
		} else {
			total += f.tw.OutOfOrder()
		}
	}
	return total
}

// LateDuplicates counts the segments answered by a receiver resumed from
// its flow's TIME_WAIT record: duplicates that reached the destination
// after the receiver had acknowledged every byte. Their ACKs are what a
// source refuses as DroppedNoFlow once the flow's sender has retired.
func (w *Workload) LateDuplicates() uint64 {
	var total uint64
	for i := range w.local {
		total += w.local[i].resumed
	}
	return total
}

// Cleanup detaches the endpoints still open — senders and receivers of
// unfinished flows — and the workload's listeners, so the hosts can carry
// another workload. Call it after the run, from a serial context.
func (w *Workload) Cleanup() {
	for i := range w.Flows {
		f := &w.Flows[i]
		id := baseFlow + netsim.FlowID(i)
		if f.sender != nil {
			w.hosts[f.Src].Unregister(id)
		}
		if f.receiver != nil {
			w.hosts[f.Dst].Unregister(id)
		}
	}
	for _, h := range w.hosts {
		h.Listen(nil)
	}
}

// Digest folds every flow's trace entry and outcome — size, arrival,
// endpoints, completion time — into one FNV-1a word, in flow order. Two
// runs agree on the digest iff they agree on the whole trace and every
// FCT, making "same seed → same result" a one-word comparison.
func (w *Workload) Digest() uint64 {
	var h stats.Hash
	for i := range w.Flows {
		f := &w.Flows[i]
		h.Word(uint64(f.Size))
		h.Word(uint64(f.Arrival))
		h.Word(uint64(f.Src)<<32 | uint64(f.Dst))
		fct := uint64(math.MaxUint64)
		if f.done {
			fct = uint64(f.fct)
		}
		h.Word(fct)
	}
	return h.Sum64()
}

// BucketStats summarizes completion times for one size bucket.
type BucketStats struct {
	// Bucket names the class: "small", "medium", or "large".
	Bucket string `json:"bucket"`
	// Flows and Completed count trace entries and finished transfers.
	Flows     int `json:"flows"`
	Completed int `json:"completed"`
	// MeanSeconds and the percentiles summarize completed FCTs
	// (exact nearest-rank over the recorded values, not histogram
	// interpolation).
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

// Buckets classifies sizes: small ≤ smallMax < medium < largeMin ≤ large.
func bucketOf(size, smallMax, largeMin int64) int {
	switch {
	case size <= smallMax:
		return 0
	case size >= largeMin:
		return 2
	default:
		return 1
	}
}

var bucketNames = [3]string{"small", "medium", "large"}

// FCTStats buckets the trace by size and returns exact FCT percentiles
// per bucket, in small/medium/large order.
func (w *Workload) FCTStats(smallMax, largeMin int64) []BucketStats {
	out := make([]BucketStats, 3)
	for i := range out {
		out[i].Bucket = bucketNames[i]
	}
	for i := range w.Flows {
		f := &w.Flows[i]
		b := bucketOf(f.Size, smallMax, largeMin)
		out[b].Flows++
		if f.done {
			out[b].Completed++
		}
	}
	// Counted first, so each bucket's list is allocated once.
	var fcts [3][]float64
	for b := range fcts {
		fcts[b] = make([]float64, 0, out[b].Completed)
	}
	for i := range w.Flows {
		if f := &w.Flows[i]; f.done {
			b := bucketOf(f.Size, smallMax, largeMin)
			fcts[b] = append(fcts[b], (f.fct - f.Arrival).Seconds())
		}
	}
	for b := range out {
		v := fcts[b]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		out[b].MeanSeconds = sum / float64(len(v))
		out[b].P50Seconds = nearestRank(v, 0.50)
		out[b].P95Seconds = nearestRank(v, 0.95)
		out[b].P99Seconds = nearestRank(v, 0.99)
	}
	return out
}

// nearestRank returns the q-quantile of sorted values by the
// nearest-rank definition: the smallest value with at least q·n values
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// RecordFCT registers one FCT histogram per size bucket and fills them
// from the completed flows, so dtmetrics/v1 snapshots carry the
// workload's p50/p95/p99 per bucket. Call after the run: histograms are
// not written concurrently. Bounds span 10 µs to ~18 s exponentially.
func (w *Workload) RecordFCT(reg *metrics.Registry, smallMax, largeMin int64) {
	var hists [3]*metrics.Histogram
	bounds := metrics.ExponentialBounds(10e-6, 1.5, 36)
	for b, name := range bucketNames {
		hists[b] = reg.Histogram("flowgen_fct_seconds",
			"flow completion time by size bucket", bounds, metrics.L("bucket", name))
	}
	for i := range w.Flows {
		f := &w.Flows[i]
		if f.done {
			hists[bucketOf(f.Size, smallMax, largeMin)].Observe((f.fct - f.Arrival).Seconds())
		}
	}
	reg.GaugeFunc("flowgen_flows_total", "trace length", func() float64 {
		return float64(len(w.Flows))
	})
	reg.GaugeFunc("flowgen_flows_completed", "finished transfers", func() float64 {
		return float64(w.Completed())
	})
}
