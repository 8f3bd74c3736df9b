package tcp

import (
	"math/rand"
	"time"

	"dtdctcp/internal/sim"
)

// PlusState is the DCTCP+ slow-timer state, mirroring the ns-3 reference
// (TcpDctcpPlus): NORMAL sends unpaced; TIME_INC grows the slow timer
// additively while congestion persists at the window floor; TIME_DES
// shrinks it multiplicatively once congestion clears, snapping back to
// NORMAL below the threshold.
type PlusState int

// DCTCP+ slow-timer states.
const (
	PlusNormal PlusState = iota
	PlusTimeInc
	PlusTimeDes
)

// String names the state after the reference implementation's enum.
func (st PlusState) String() string {
	switch st {
	case PlusNormal:
		return "DCTCP_NORMAL"
	case PlusTimeInc:
		return "DCTCP_TIME_INC"
	case PlusTimeDes:
		return "DCTCP_TIME_DES"
	default:
		return "invalid"
	}
}

// plusPacer carries one DCTCP+ sender's slow-timer machinery. Pacing
// randomness comes from a sender-private RNG seeded at construction from
// the run's root source (Config.PacingSeed): runtime draws never touch
// the engine RNG.
type plusPacer struct {
	state    PlusState
	slowTime time.Duration
	// congested latches loss signals (retransmission, RTO) between
	// observation-window closings; ECE marks are already counted by the
	// α estimator's markedBytes.
	congested bool
	armed     bool
	timer     sim.Timer
	rng       *rand.Rand
}

// open resets p, in place, to the pacer of a fresh DCTCP+ connection on
// s: its timer stays where it is, and its RNG is made when p has none and
// reseeded otherwise — the stream a new source with that seed yields.
//
//dtlint:hotpath
func (p *plusPacer) open(s *Sender, cfg Config) {
	seed := cfg.PacingSeed
	if seed == 0 {
		// Deterministic flow-derived fallback for directly constructed
		// senders (unit tests, ad-hoc harnesses).
		seed = int64(s.flow) + 1
	}
	*p = plusPacer{timer: p.timer, rng: p.rng}
	p.timer.Init(s.host.Engine(), senderPace, s)
	if p.rng == nil {
		// The allocate branch, for storage that never carried a DCTCP+
		// connection; the source is seeded from the construction engine's
		// through Config.PacingSeed.
		//dtlint:allow hotalloc,nondeterm: made once per storage, from a seed the run's root source drew
		p.rng = rand.New(rand.NewSource(seed))
		return
	}
	p.rng.Seed(seed)
}

// delay draws one randomized pacing delay, uniform in
// [slowTime/2, 3·slowTime/2) — the reference's randomizeSendingTime
// around the slow timer.
func (p *plusPacer) delay() time.Duration {
	return time.Duration(float64(p.slowTime) * (0.5 + p.rng.Float64()))
}

// tick advances the state machine at the close of one observation
// window. congested means the window saw ECE marks, a retransmission or
// an RTO; atFloor means the congestion window sits at its minimum, the
// regime where conventional DCTCP has nothing left to cut and incast
// rounds devolve into synchronized bursts.
func (p *plusPacer) tick(congested, atFloor bool) {
	switch p.state {
	case PlusNormal:
		if congested && atFloor {
			p.state = PlusTimeInc
			p.grow()
		}
	case PlusTimeInc:
		if congested {
			p.grow()
		} else {
			p.state = PlusTimeDes
		}
	case PlusTimeDes:
		if congested {
			p.state = PlusTimeInc
			p.grow()
		} else {
			p.slowTime = time.Duration(float64(p.slowTime) / divisorFactor)
			if p.slowTime <= slowTimerThreshold {
				p.slowTime = 0
				p.state = PlusNormal
			}
		}
	}
	p.congested = false
}

// grow applies the additive slow-timer increase, capped at slowTimerMax.
func (p *plusPacer) grow() {
	p.slowTime += backoffUnit
	if p.slowTime > slowTimerMax {
		p.slowTime = slowTimerMax
	}
}

// onPace fires when the randomized pacing delay elapses: release exactly
// one segment, then fall back into trySend, which re-arms the pacer for
// the next segment while the slow timer is nonzero.
func (s *Sender) onPace() {
	s.ext.plus.armed = false
	if s.completed {
		return
	}
	payload := s.nextPayload()
	if payload == 0 {
		return
	}
	s.stats.PacedSegments++
	s.transmit(s.sndNxt, int(payload))
	s.sndNxt += payload
	s.trySend()
}
