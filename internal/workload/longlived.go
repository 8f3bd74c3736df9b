// Package workload builds the traffic patterns of the paper's evaluation:
// long-lived bulk flows sharing one bottleneck (Figs. 1, 10–12), and
// synchronized partition/aggregate queries (Figs. 14–15, the incast and
// completion-time experiments).
package workload

import (
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// LongLived drives N never-ending flows from distinct sender hosts to one
// receiver host.
type LongLived struct {
	// Senders returns the transport senders, one per flow, for α and
	// cwnd sampling.
	Senders []*tcp.Sender
}

// LongLivedConfig parameterizes a long-lived flow set.
type LongLivedConfig struct {
	// Hosts are the sending hosts, one flow each.
	Hosts []*netsim.Host
	// Receiver is the common sink host.
	Receiver *netsim.Host
	// TCP is the endpoint configuration shared by all flows.
	TCP tcp.Config
	// BaseFlow is the first flow ID; flow i uses BaseFlow+i.
	BaseFlow netsim.FlowID
	// StartJitter spreads flow starts uniformly over the interval to
	// avoid perfect phase lock; the paper starts all flows "at the same
	// time", which a one-RTT jitter still honours. Zero starts all
	// flows at t=0 exactly.
	StartJitter time.Duration
}

// StartLongLived creates and starts the flow set at the current instant.
func StartLongLived(engine *sim.Engine, cfg LongLivedConfig) *LongLived {
	// The receivers live in the sink host's flow table, sized here for
	// all of them at once.
	w := &LongLived{Senders: make([]*tcp.Sender, 0, len(cfg.Hosts))}
	cfg.Receiver.ReserveEndpoints(len(cfg.Hosts))
	for i, h := range cfg.Hosts {
		flow := cfg.BaseFlow + netsim.FlowID(i)
		tcpCfg := plusPacingSeed(engine, cfg.TCP)
		s := tcp.NewSender(h, flow, cfg.Receiver.ID(), 0, tcpCfg)
		tcp.NewReceiver(cfg.Receiver, flow, h.ID(), cfg.TCP)
		w.Senders = append(w.Senders, s)
		if cfg.StartJitter > 0 {
			jitter := time.Duration(engine.Rand().Int63n(int64(cfg.StartJitter)))
			s.StartAt(engine.Now().Add(jitter))
		} else {
			s.Start()
		}
	}
	return w
}

// plusPacingSeed draws a DCTCP+ pacing seed from the construction
// engine's root source — one draw per sender, in construction order — so
// the seed, and with it every runtime pacing draw, which goes through the
// sender's private RNG, is a pure function of the run seed. Other
// variants take no draw, leaving their RNG streams (and the committed
// golden digests) untouched.
func plusPacingSeed(engine *sim.Engine, cfg tcp.Config) tcp.Config {
	if cfg.Variant == tcp.DCTCPPlus && cfg.PacingSeed == 0 {
		cfg.PacingSeed = engine.Rand().Int63() + 1
	}
	return cfg
}

// TotalAcked sums acknowledged bytes across all flows.
func (w *LongLived) TotalAcked() int64 {
	var total int64
	for _, s := range w.Senders {
		total += s.Acked()
	}
	return total
}

// MeanAlpha averages the instantaneous α across flows.
func (w *LongLived) MeanAlpha() float64 {
	if len(w.Senders) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range w.Senders {
		sum += s.Alpha()
	}
	return sum / float64(len(w.Senders))
}

// MeanCwnd averages the congestion window across flows, in packets.
func (w *LongLived) MeanCwnd() float64 {
	if len(w.Senders) == 0 {
		return 0
	}
	var total float64
	for _, s := range w.Senders {
		total += s.CwndPackets()
	}
	return total / float64(len(w.Senders))
}

// Losses sums RTO firings and retransmitted segments across flows.
func (w *LongLived) Losses() (timeouts, retransmissions uint64) {
	for _, s := range w.Senders {
		st := s.Stats()
		timeouts += st.Timeouts
		retransmissions += st.Retransmissions
	}
	return timeouts, retransmissions
}
