// Package tcp implements the transport endpoints of the experiments: a
// window-based TCP sender/receiver pair with slow start, congestion
// avoidance, NewReno fast recovery and RTO, plus the two ECN responses the
// paper compares — classic RFC3168 halving and DCTCP's α-proportional
// decrease. The switch-side marking laws live in internal/aqm; this
// package is the end-host side.
//
// Connection establishment and teardown are not modelled: flows start
// sending in slow start immediately, which matches how both the paper and
// the original DCTCP evaluation configure ns-2.
package tcp

import (
	"time"
)

// Variant selects the congestion-control response to ECN marks.
type Variant int

// Congestion control variants.
const (
	// Reno is plain NewReno with no ECN reaction (marks are ignored,
	// losses drive the window).
	Reno Variant = iota + 1
	// RenoECN is NewReno with the RFC3168 response: halve the window at
	// most once per RTT when ECE arrives.
	RenoECN
	// DCTCP estimates the marked fraction α and reduces the window by
	// α/2 once per window of data, per Alizadeh et al.
	DCTCP
	// Cubic is loss-driven CUBIC (RFC 8312), the Linux default of the
	// paper's era, with no ECN reaction: the congestion-avoidance window
	// follows the cubic curve W(t) = C·(t−K)³ + Wmax anchored at the
	// last loss event, bounded below by the Reno-friendly region.
	Cubic
	// D2TCP is the deadline-aware DCTCP of Vamanan et al. (SIGCOMM'12),
	// cited by the paper as a DCTCP successor: the per-window reduction
	// uses the penalty p = α^d, where the urgency d > 1 for flows close
	// to their deadline (a smaller penalty, hence gentler backoff) and
	// d < 1 for flows with slack (harsher backoff). Without a deadline
	// it degenerates to DCTCP (d = 1).
	D2TCP
	// DCTCPPlus is DCTCP with the slow-timer backoff state machine
	// (DCTCP_NORMAL / DCTCP_TIME_INC / DCTCP_TIME_DES): once the window
	// has collapsed to its floor and congestion persists, the sender
	// stops pushing harder and instead paces every transmission by a
	// randomized slow-timer delay, growing the timer additively per
	// congested window and shrinking it multiplicatively per clear one.
	// It attacks the incast-oscillation regime from the sender side,
	// where DT-DCTCP attacks it from the marking side.
	DCTCPPlus
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Reno:
		return "reno"
	case RenoECN:
		return "reno-ecn"
	case DCTCP:
		return "dctcp"
	case Cubic:
		return "cubic"
	case D2TCP:
		return "d2tcp"
	case DCTCPPlus:
		return "dctcp+"
	default:
		return "invalid"
	}
}

// Config carries the endpoint parameters. The zero value is not usable;
// call DefaultConfig and override fields. Endpoints run a Config as given:
// core's protocol validation refuses the values they cannot run.
type Config struct {
	// Variant selects the congestion-control response.
	Variant Variant
	// MSS is the maximum payload bytes per segment.
	MSS int
	// G is DCTCP's EWMA gain for α (the paper uses 1/16).
	G float64
	// AckEvery sets the delayed-ACK factor: 1 acknowledges every
	// segment, 2 every other segment. The DCTCP ECE echo state machine
	// flushes early whenever the CE state changes.
	AckEvery int
	// RTOMin clamps the retransmission timeout from below. The paper's
	// incast experiments inherit the Linux default of 200 ms.
	RTOMin time.Duration
	// RTOInitial is the timeout before any RTT sample exists.
	RTOInitial time.Duration
	// PacingSeed seeds the DCTCP+ sender's private pacing RNG. Workload
	// drivers draw it from the construction engine's seeded source — one
	// draw per sender, in construction order — so pacing randomness
	// stays a pure function of the run seed. Zero falls back to a
	// flow-derived constant.
	PacingSeed int64
}

// The endpoint parameters no experiment varies.
const (
	headerBytes       = 40                     // on every packet's wire size; a pure ACK is exactly this long
	initialWindow     = 3                      // segments (IW3, the Linux 2.6.38 default)
	initialAlpha      = 1.0                    // DCTCP's α seed, the reference implementation's conservative choice
	delayedAckTimeout = 500 * time.Microsecond // how long a receiver holds a delayed ACK
	rtoMax            = 60 * time.Second       // the cap on exponential RTO backoff
)

// DCTCP+'s slow-timer constants, scaled to the paper's ~100 µs
// datacenter RTT (the ns-3 reference uses a 100 µs backoff unit). Each
// congested observation window at the cwnd floor grows the pacing delay
// by backoffUnit, up to slowTimerMax, so pacing can never stretch a
// transfer past RTO-collapse territory; each uncongested one in
// DCTCP_TIME_DES divides it by divisorFactor, and below
// slowTimerThreshold it snaps to zero and the sender returns to
// DCTCP_NORMAL.
const (
	backoffUnit        = 100 * time.Microsecond
	slowTimerMax       = 5 * time.Millisecond
	divisorFactor      = 2.0
	slowTimerThreshold = 50 * time.Microsecond
)

// DefaultConfig returns the parameters used throughout the paper unless an
// experiment overrides them: 1.5 KB packets, g = 1/16, per-segment ACKs,
// RTOmin = 200 ms.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:    v,
		MSS:        1460,
		G:          1.0 / 16,
		AckEvery:   1,
		RTOMin:     200 * time.Millisecond,
		RTOInitial: 200 * time.Millisecond,
	}
}

// PacketSize returns the wire size of a full segment.
func (c Config) PacketSize() int { return c.MSS + headerBytes }

// ect reports whether v negotiates ECN-capable transport.
func (v Variant) ect() bool { return v != Reno && v != Cubic }

// dctcpLike reports whether the variant runs DCTCP's α estimator.
func (v Variant) dctcpLike() bool { return v == DCTCP || v == D2TCP || v == DCTCPPlus }
