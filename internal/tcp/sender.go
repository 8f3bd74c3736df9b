package tcp

import (
	"math"
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// Sender is the data source of one flow. It implements window-based
// congestion control: slow start, congestion avoidance, NewReno fast
// retransmit/recovery, RTO with exponential backoff, and one of three ECN
// responses (none, RFC3168, DCTCP).
type Sender struct {
	host *netsim.Host
	flow netsim.FlowID
	peer netsim.NodeID

	// The three Config fields a sender reads after open; RTOMin and
	// RTOInitial live in rtt and PacingSeed is read at open.
	variant Variant
	mss     int
	g       float64

	// total is the number of payload bytes to transfer; 0 means a
	// long-lived flow that never completes.
	total int64
	// Deadline, when set, is the instant the transfer should finish by;
	// D2TCP uses it to compute the urgency factor d.
	Deadline sim.Time
	// OnComplete, when set, fires once when every byte is acknowledged. It
	// is handed the sender so one function bound once can serve every
	// connection of a workload. The handler may retire the sender and
	// Reopen its storage as another connection before it returns.
	OnComplete func(s *Sender, now sim.Time)

	// Sequence state (bytes).
	sndUna int64
	sndNxt int64

	// Congestion control (bytes). cwnd moves in whole-MSS steps outside
	// slow start; caCount is the byte accumulator behind the step
	// (Linux's snd_cwnd_cnt).
	cwnd     float64
	ssthresh float64
	caCount  float64

	// NewReno recovery state.
	dupAcks int
	recover int64

	// DCTCP state.
	alpha       float64
	ceWindowEnd int64 // α is updated when sndUna passes this point
	ackedBytes  int64 // bytes acked in the current observation window
	markedBytes int64 // of which carried ECE
	growHoldSeq int64 // no additive increase until sndUna passes this (CWR episode)
	// ext is the Cubic or DCTCP+ state (nil for other variants).
	ext          *variantState
	retxSeq      int64 // highest sequence retransmitted (Karn: skip RTT samples)
	rtt          rttEstimator
	rtoTimer     sim.Timer
	rtoBackoff   int
	completeTime sim.Time

	// The flags, side by side in one word.
	inRecovery bool // NewReno fast recovery
	ecnReduced bool // window already reduced in this observation window
	cwrPending bool // set CWR on the next data packet (RFC3168)
	retxValid  bool // retxSeq holds a retransmission
	started    bool
	completed  bool

	stats SenderStats
}

// variantState is the state only two variants carry, behind one pointer
// so that a sender of the others does not pay for it: Cubic's curve, and
// DCTCP+'s slow-timer pacer with its timer, which must not move.
type variantState struct {
	cubic cubicState
	plus  plusPacer
}

// SenderStats counts sender-side events.
type SenderStats struct {
	// SegmentsSent counts data transmissions, including retransmissions.
	SegmentsSent uint64
	// Retransmissions counts retransmitted segments.
	Retransmissions uint64
	// FastRecoveries counts entries into NewReno fast recovery.
	FastRecoveries uint64
	// Timeouts counts RTO firings.
	Timeouts uint64
	// AcksReceived counts ACK segments processed (the ECE-ratio
	// denominator).
	AcksReceived uint64
	// ECEAcks counts ACKs that carried an ECN echo.
	ECEAcks uint64
	// AlphaUpdates counts per-window α recomputations (DCTCP).
	AlphaUpdates uint64
	// ECNReductions counts window reductions triggered by marks alone.
	ECNReductions uint64
	// PacedSegments counts DCTCP+ transmissions released by the
	// slow-timer pacer (zero for other variants — the anti-vacuity
	// signal that pacing actually engaged).
	PacedSegments uint64
	// SlowTimerBackoffs counts DCTCP+ additive slow-timer growths.
	SlowTimerBackoffs uint64
}

// NewSender creates a sender for flow on host, transmitting totalBytes of
// payload to peer (0 = unlimited). It registers itself as the host's
// endpoint for the flow's ACK stream. Call Start to begin transmitting.
func NewSender(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, totalBytes int64, cfg Config) *Sender {
	s := &Sender{}
	s.open(host, flow, peer, totalBytes, cfg)
	return s
}

// Reopen turns the storage of a retired sender — completed, unregistered
// from its host — into the sender NewSender would have built from the
// same arguments, allocating nothing, and reports true. It reports false
// and touches nothing when the storage cannot serve because one of its
// timers is still armed. The caller then constructs a sender as before.
//
// Reuse is exact. Construction draws no randomness and consumes no
// sequence number. A stopped timer keeps at most one cancelled wake-up
// queued, and its first ResetAt either revives that wake-up in place
// under the key (at, now, nextSeq) or queues a fresh one — the key a new
// timer's first arm would carry — so fire order and the engine's
// Processed, Scheduled and Cancelled counts are those of a run that
// allocated every connection.
//
//dtlint:hotpath
func (s *Sender) Reopen(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, totalBytes int64, cfg Config) bool {
	if s.rtoTimer.Armed() || (s.ext != nil && s.ext.plus.timer.Armed()) {
		return false
	}
	s.open(host, flow, peer, totalBytes, cfg)
	return true
}

// open is the one definition of a fresh connection's sender state, run by
// NewSender on zeroed storage and by Reopen on a retired sender's. Only
// the timers and the Cubic/DCTCP+ state survive it, each reset to what a
// new one would be; the timers stay where they are, since a queued
// wake-up points at its timer.
//
//dtlint:hotpath
func (s *Sender) open(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, totalBytes int64, cfg Config) {
	rto, ext := s.rtoTimer, s.ext
	*s = Sender{
		host:    host,
		flow:    flow,
		peer:    peer,
		variant: cfg.Variant,
		mss:     cfg.MSS,
		g:       cfg.G,
		total:   totalBytes,
		cwnd:    float64(initialWindow * cfg.MSS),
		// Effectively unbounded until the first loss/mark event.
		ssthresh: math.MaxFloat64 / 4,
		alpha:    initialAlpha,
		rtt:      newRTTEstimator(cfg),
		rtoTimer: rto,
	}
	s.rtoTimer.Init(host.Engine(), senderRTO, s)
	if cfg.Variant == Cubic || cfg.Variant == DCTCPPlus {
		if ext == nil {
			//dtlint:allow hotalloc: the allocate branch — storage that never carried a Cubic or DCTCP+ connection
			ext = &variantState{}
		}
		ext.cubic = cubicState{}
		if cfg.Variant == DCTCPPlus {
			ext.plus.open(s, cfg)
		}
		s.ext = ext
	}
	host.Register(flow, s)
}

// senderRTO and senderPace are the sender's timer callbacks.
//
//dtlint:hotpath
func senderRTO(arg any) { arg.(*Sender).onRTO() }

//dtlint:hotpath
func senderPace(arg any) { arg.(*Sender).onPace() }

// senderStart is StartAt's event callback.
func senderStart(arg any) { arg.(*Sender).Start() }

// pacer returns the DCTCP+ pacer, nil for other variants.
//
//dtlint:hotpath
func (s *Sender) pacer() *plusPacer {
	if s.variant != DCTCPPlus {
		return nil
	}
	return &s.ext.plus
}

// Extend appends more payload bytes to a (possibly completed) transfer
// and resumes sending with the connection's congestion state intact —
// the persistent-connection behaviour of repeated request/response
// workloads. Extending an unlimited (totalBytes = 0) sender is a no-op.
func (s *Sender) Extend(moreBytes int64) {
	if s.total == 0 || moreBytes <= 0 {
		return
	}
	s.total += moreBytes
	if s.completed {
		s.completed = false
		s.completeTime = 0
	}
	if s.started {
		s.trySend()
	}
}

// Start begins transmission at the current instant.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
}

// StartAt schedules transmission to begin at the given instant.
func (s *Sender) StartAt(at sim.Time) {
	s.host.Engine().ScheduleArg(at, senderStart, s)
}

// Alpha returns DCTCP's current congestion estimate α.
func (s *Sender) Alpha() float64 { return s.alpha }

// CwndPackets returns the congestion window in segments.
func (s *Sender) CwndPackets() float64 { return s.cwnd / float64(s.mss) }

// Acked returns the number of acknowledged payload bytes.
func (s *Sender) Acked() int64 { return s.sndUna }

// Completed reports whether the whole transfer has been acknowledged.
func (s *Sender) Completed() bool { return s.completed }

// CompletionTime returns when the transfer completed (valid once
// Completed reports true).
func (s *Sender) CompletionTime() sim.Time { return s.completeTime }

// Stats returns a copy of the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Flow returns the sender's flow ID.
func (s *Sender) Flow() netsim.FlowID { return s.flow }

// trySend transmits new segments while the congestion window allows.
//
//dtlint:hotpath
func (s *Sender) trySend() {
	for {
		if s.completed {
			return
		}
		p := s.pacer()
		if p != nil && p.armed {
			return
		}
		payload := s.nextPayload()
		if payload == 0 {
			return
		}
		if p != nil && p.slowTime > 0 {
			// DCTCP+ pacing: one segment per randomized slow-timer
			// delay instead of a window-limited burst.
			p.timer.Reset(p.delay())
			p.armed = true
			return
		}
		s.transmit(s.sndNxt, int(payload))
		s.sndNxt += payload
	}
}

// nextPayload sizes the next new segment: a full MSS, or what is left of
// a bounded transfer. It returns 0 when the window has no room for a
// segment or nothing is left to send.
//
//dtlint:hotpath
func (s *Sender) nextPayload() int64 {
	inFlight := float64(s.sndNxt - s.sndUna)
	if inFlight+float64(s.mss) > s.cwnd+0.5 {
		return 0
	}
	payload := int64(s.mss)
	if s.total > 0 {
		remaining := s.total - s.sndNxt
		if remaining <= 0 {
			return 0
		}
		if remaining < payload {
			payload = remaining
		}
	}
	return payload
}

// transmit sends one segment starting at seq.
//
//dtlint:hotpath
func (s *Sender) transmit(seq int64, payload int) {
	pkt := s.host.AllocPacket()
	pkt.Flow = s.flow
	pkt.Dst = s.peer
	pkt.Size = int32(payload + headerBytes)
	pkt.Seq = seq
	pkt.PayloadLen = int32(payload)
	pkt.ECT = s.variant.ect()
	pkt.SentAt = s.host.Engine().Now()
	if s.cwrPending {
		pkt.CWR = true
		s.cwrPending = false
	}
	s.stats.SegmentsSent++
	if !s.rtoTimer.Armed() {
		s.armRTO()
	}
	s.host.Send(pkt)
}

// Deliver implements netsim.Endpoint for the ACK stream.
//
//dtlint:hotpath
func (s *Sender) Deliver(pkt *netsim.Packet) {
	if !pkt.IsAck || s.completed {
		return
	}
	s.stats.AcksReceived++
	if pkt.ECE {
		s.stats.ECEAcks++
	}

	switch {
	case pkt.Ack > s.sndUna:
		if s.onNewAck(pkt) {
			// Completed: OnComplete may already have reopened this
			// storage as another connection, and a completed sender
			// has nothing to send.
			return
		}
	case pkt.Ack == s.sndUna:
		s.onDupAck(pkt)
	}
	// Stale ACK below sndUna: ignore.

	s.trySend()
}

// onNewAck processes an ACK that advances sndUna and reports whether it
// completed the transfer.
//
//dtlint:hotpath
func (s *Sender) onNewAck(pkt *netsim.Packet) (completed bool) {
	ackedNow := pkt.Ack - s.sndUna
	s.sndUna = pkt.Ack
	s.dupAcks = 0
	s.rtoBackoff = 0

	// RTT sampling with Karn's rule: skip ACKs that could have been
	// triggered by a retransmission.
	if pkt.EchoSentAt > 0 && (!s.retxValid || pkt.Ack > s.retxSeq) {
		s.rtt.sample(time.Duration(s.host.Engine().Now() - pkt.EchoSentAt))
	}

	// DCTCP accounting: every acked byte in the observation window is
	// classified by the ACK's ECE bit.
	if s.variant.dctcpLike() {
		s.ackedBytes += ackedNow
		if pkt.ECE {
			s.markedBytes += ackedNow
		}
		if s.sndUna >= s.ceWindowEnd {
			s.updateAlphaWindow()
		}
	}

	if s.inRecovery {
		if s.sndUna >= s.recover {
			// Full ACK: leave recovery, deflate.
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else {
			// Partial ACK: retransmit the next hole, stay in
			// recovery (NewReno).
			s.retransmitHead()
			s.armRTO()
			return false
		}
	} else if s.sndUna >= s.growHoldSeq && !pkt.ECE {
		// RFC 3168 §6.1.2: no window increase on an ACK that carries
		// ECE, nor during the round trip that follows an ECN-triggered
		// reduction. Without this, at small windows the per-window cut
		// and the per-ACK increase cancel exactly and the whole system
		// freezes into a fractional fixed point; with it, sustained
		// marking forces windows to keep shrinking until the queue
		// drains below the threshold — the start of the next
		// oscillation period the paper describes in Section III.
		s.grow(ackedNow)
	}

	// Classic ECN: halve at most once per RTT on ECE.
	if s.variant == RenoECN && pkt.ECE && !s.ecnReduced {
		s.ecnReduced = true
		s.cwrPending = true
		s.ceWindowEnd = s.sndNxt // re-arm after one window
		s.growHoldSeq = s.sndNxt
		s.halve()
		s.stats.ECNReductions++
	}
	if s.variant == RenoECN && s.sndUna >= s.ceWindowEnd {
		s.ecnReduced = false
	}

	if s.total > 0 && s.sndUna >= s.total {
		s.complete()
		return true
	}
	if s.sndUna == s.sndNxt {
		s.rtoTimer.Stop()
	} else {
		s.armRTO()
	}
	return false
}

// grow applies slow start or congestion avoidance for ackedNow new bytes.
// Congestion avoidance uses the classic integer accumulator (Linux's
// snd_cwnd_cnt): the window steps up by one whole MSS after a full
// window's worth of bytes is acknowledged. The quantization matters: it is
// what keeps many small-window flows oscillating instead of settling into
// a fractional fixed point (the regime of the paper's Fig. 1 at N = 100).
//
//dtlint:hotpath
func (s *Sender) grow(ackedNow int64) {
	mss := float64(s.mss)
	if s.cwnd < s.ssthresh {
		// Slow start: one MSS per acked MSS (byte counting).
		s.cwnd += math.Min(float64(ackedNow), mss)
		if s.cwnd > s.ssthresh {
			s.cwnd = s.ssthresh
		}
		return
	}
	if s.variant == Cubic {
		segs := float64(ackedNow) / mss
		s.ext.cubic.onAck(segs)
		cwndSegs := s.cwnd / mss
		target := s.ext.cubic.target(s.host.Engine().Now(), cwndSegs, s.rtt.smoothed().Seconds())
		// RFC 8312 §4.1: limit the per-RTT increase to 50%.
		if target > 1.5*cwndSegs {
			target = 1.5 * cwndSegs
		}
		if target > cwndSegs {
			// Standard cnt-based pacing of the cubic curve: the
			// window moves (target − cwnd)/cwnd per acked window.
			s.cwnd += (target - cwndSegs) / cwndSegs * segs * mss
		}
		return
	}
	s.caCount += float64(ackedNow)
	for s.caCount >= s.cwnd {
		s.caCount -= s.cwnd
		s.cwnd += mss
	}
}

//dtlint:hotpath
func (s *Sender) onDupAck(pkt *netsim.Packet) {
	// A dup ACK only counts when data is outstanding.
	if s.sndNxt == s.sndUna {
		return
	}
	s.dupAcks++
	if s.inRecovery {
		// Window inflation per extra dup ACK.
		s.cwnd += float64(s.mss)
		return
	}
	if s.dupAcks == 3 {
		s.enterRecovery()
	}
}

func (s *Sender) enterRecovery() {
	s.stats.FastRecoveries++
	s.inRecovery = true
	s.recover = s.sndNxt
	mss := float64(s.mss)
	if s.variant == Cubic {
		s.ssthresh = s.ext.cubic.onLoss(s.cwnd/mss) * mss
	} else {
		s.ssthresh = math.Max(s.cwnd/2, 2*mss)
	}
	s.cwnd = s.ssthresh + 3*mss
	s.retransmitHead()
	s.armRTO()
}

// retransmitHead resends the first unacknowledged segment and returns the
// payload length sent.
func (s *Sender) retransmitHead() int64 {
	payload := int64(s.mss)
	if s.total > 0 {
		remaining := s.total - s.sndUna
		if remaining < payload {
			payload = remaining
		}
	}
	if payload <= 0 {
		return 0
	}
	s.stats.Retransmissions++
	if p := s.pacer(); p != nil {
		p.congested = true
	}
	s.retxSeq = s.sndUna + payload
	s.retxValid = true
	s.transmit(s.sndUna, int(payload))
	return payload
}

// onRTO handles a retransmission timeout: collapse to one segment and
// resend from the cumulative ACK point.
func (s *Sender) onRTO() {
	if s.completed || s.sndUna == s.sndNxt {
		return
	}
	s.stats.Timeouts++
	if s.variant == Cubic {
		s.ssthresh = s.ext.cubic.onLoss(s.cwnd/float64(s.mss)) * float64(s.mss)
		s.ext.cubic.reset()
	} else {
		s.ssthresh = math.Max(float64(s.sndNxt-s.sndUna)/2, float64(2*s.mss))
	}
	s.cwnd = float64(s.mss)
	s.inRecovery = false
	s.dupAcks = 0
	s.rtoBackoff++
	// Go-back-N: rewind and resend the head; sndNxt tracks the resent
	// segment so the window accounting stays consistent.
	s.sndNxt = s.sndUna + s.retransmitHead()
	s.armRTO()
}

//dtlint:hotpath
func (s *Sender) armRTO() {
	rto := s.rtt.rto()
	for i := 0; i < s.rtoBackoff; i++ {
		rto *= 2
		if rto >= rtoMax {
			rto = rtoMax
			break
		}
	}
	s.rtoTimer.Reset(rto)
}

// halve applies the multiplicative decrease of loss-free classic ECN.
func (s *Sender) halve() {
	s.ssthresh = math.Max(s.cwnd/2, float64(2*s.mss))
	s.cwnd = s.ssthresh
}

// updateAlphaWindow closes one DCTCP observation window: update α from the
// marked fraction and apply at most one proportional reduction per window.
func (s *Sender) updateAlphaWindow() {
	if s.ackedBytes > 0 {
		frac := float64(s.markedBytes) / float64(s.ackedBytes)
		s.alpha = (1-s.g)*s.alpha + s.g*frac
		s.stats.AlphaUpdates++
		if invariant.Enabled {
			invariant.Assert(s.alpha >= 0 && s.alpha <= 1,
				"tcp: alpha %g outside [0,1] (frac=%g g=%g)", s.alpha, frac, s.g)
			invariant.Assert(s.markedBytes <= s.ackedBytes,
				"tcp: marked bytes %d exceed acked bytes %d", s.markedBytes, s.ackedBytes)
		}
		if s.markedBytes > 0 {
			// cwnd ← cwnd·(1 − p/2), floored to a whole segment
			// count and bounded below by one segment, matching the
			// integer window arithmetic of real implementations.
			// For DCTCP the penalty p is α itself; for D2TCP it is
			// α^d with d the deadline urgency.
			penalty := s.alpha
			if s.variant == D2TCP {
				penalty = math.Pow(s.alpha, s.urgency())
			}
			mss := float64(s.mss)
			cut := math.Floor(s.cwnd * (1 - penalty/2) / mss)
			s.cwnd = math.Max(cut*mss, mss)
			s.ssthresh = s.cwnd
			s.caCount = 0
			s.growHoldSeq = s.sndNxt
			s.stats.ECNReductions++
		}
	}
	// DCTCP+: one slow-timer transition per observation window, after
	// the window cut so the floor test sees the post-cut cwnd.
	if p := s.pacer(); p != nil {
		congested := s.markedBytes > 0 || p.congested
		atFloor := s.cwnd <= float64(2*s.mss)+0.5
		was := p.slowTime
		p.tick(congested, atFloor)
		if p.slowTime > was {
			s.stats.SlowTimerBackoffs++
		}
	}
	s.ackedBytes = 0
	s.markedBytes = 0
	s.ceWindowEnd = s.sndNxt
}

// urgency computes D2TCP's deadline-imminence factor d = Tc/Δ, clamped to
// [0.5, 2]: Tc is the time the remaining bytes need at the current rate
// (cwnd per RTT) and Δ the time left until the deadline. A tight deadline
// (Tc > Δ) gives d > 1, which shrinks the penalty α^d and so backs off
// more gently; ample slack gives d < 1 and a harsher backoff. Flows with
// no deadline, no remaining data, or no RTT estimate behave like DCTCP
// (d = 1); flows already past their deadline use the maximum urgency.
func (s *Sender) urgency() float64 {
	if s.Deadline == sim.TimeZero || s.total == 0 {
		return 1
	}
	remaining := float64(s.total - s.sndUna)
	if remaining <= 0 {
		return 1
	}
	srtt := s.rtt.smoothed()
	if srtt <= 0 || s.cwnd <= 0 {
		return 1
	}
	rate := s.cwnd / srtt.Seconds() // bytes per second
	tc := remaining / rate
	deltaLeft := (s.Deadline - s.host.Engine().Now()).Duration().Seconds()
	if deltaLeft <= 0 {
		return 2 // past deadline: maximum urgency, gentlest backoff
	}
	d := tc / deltaLeft
	if d < 0.5 {
		d = 0.5
	} else if d > 2 {
		d = 2
	}
	return d
}

func (s *Sender) complete() {
	s.completed = true
	s.completeTime = s.host.Engine().Now()
	s.rtoTimer.Stop()
	if p := s.pacer(); p != nil {
		p.timer.Stop()
		p.armed = false
	}
	if s.OnComplete != nil {
		s.OnComplete(s, s.completeTime)
	}
}
