package tcp

import "time"

// rttEstimator implements the Jacobson/Karels smoothed RTT and the
// standard RTO computation (RFC 6298 constants).
type rttEstimator struct {
	// srtt is 0 until the first sample and positive after it: samples
	// are positive, and a smaller one moves srtt an eighth of the gap,
	// rounded toward zero, so never down to the sample itself.
	srtt   time.Duration
	rttvar time.Duration

	rtoMin, rtoInitial time.Duration
}

func newRTTEstimator(c Config) rttEstimator {
	return rttEstimator{rtoMin: c.RTOMin, rtoInitial: c.RTOInitial}
}

// sample feeds one round-trip measurement.
func (r *rttEstimator) sample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if r.srtt == 0 {
		r.srtt = rtt
		r.rttvar = rtt / 2
		return
	}
	diff := r.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	r.rttvar += (diff - r.rttvar) / 4 // β = 1/4
	r.srtt += (rtt - r.srtt) / 8      // α = 1/8
}

// rto returns the current retransmission timeout, clamped to the
// configured bounds.
func (r *rttEstimator) rto() time.Duration {
	if r.srtt == 0 {
		return r.clamp(r.rtoInitial)
	}
	return r.clamp(r.srtt + 4*r.rttvar)
}

// smoothed returns the smoothed RTT, or 0 before the first sample.
func (r *rttEstimator) smoothed() time.Duration { return r.srtt }

func (r *rttEstimator) clamp(d time.Duration) time.Duration {
	if d < r.rtoMin {
		return r.rtoMin
	}
	if d > rtoMax {
		return rtoMax
	}
	return d
}
