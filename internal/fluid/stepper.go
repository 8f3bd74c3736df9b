package fluid

import (
	"errors"
	"fmt"
	"math"
)

// State is the exported integration state of a Stepper: everything needed
// to observe, checkpoint, or couple the model mid-run.
type State struct {
	// Step counts completed RK4 steps; T = Step · StepSize seconds.
	Step int
	// T is the model time in seconds.
	T float64
	// W, Alpha and Q are the per-flow window (packets), the marking
	// estimate, and the queue length (packets).
	W, Alpha, Q float64
	// Qdot is the instantaneous queue derivative N·W/R − C_drain in
	// packets/second.
	Qdot float64
}

// Stepper integrates the fluid model one fixed RK4 step at a time and
// keeps its full state between calls, so an integration can be driven
// incrementally — from a virtual-time event loop, for instance — instead
// of in one Solve shot. The delayed marking lookup reads from a fixed
// ring buffer holding exactly the last R₀ of history, so a step touches
// no allocator no matter how long the run (TestStepperStepAllocs pins
// the step at 0 allocs/op).
//
// Two external inputs exist for hybrid fluid/packet co-simulation and
// default to neutral values: SetAmbientQueue adds a foreign queue
// contribution (packet-level flows sharing the bottleneck) to the queue
// the marking law and the RTT see, and SetDrainCapacity lowers the
// drain rate below Config.C by the bandwidth those foreign flows
// consume. With both untouched the Stepper reproduces Solve exactly —
// Solve is implemented on top of it.
type Stepper struct {
	cfg Config
	h   float64
	// lag is the marking feedback delay in steps (R₀/h).
	lag float64

	step        int
	w, alpha, q float64

	// histQ and histQd are equal-length rings of the last steps of
	// (q, q̇), indexed by absolute step number modulo their length; head
	// is the slot the next push writes, wrapped rather than divided.
	histQ, histQd []float64
	head          int

	// extQ and drainC are the hybrid coupling inputs: ambient queue in
	// packets and effective drain capacity in packets/second.
	extQ   float64
	drainC float64
}

// maxLag caps the delay history at 2²⁰ steps per R₀ (two 8 MB rings).
const maxLag = 1 << 20

// NewStepper validates the configuration and prepares a resumable
// integration from a cold start. Duration is a Solve-level concern and
// is ignored here.
func NewStepper(cfg Config) (*Stepper, error) {
	vals := [...]float64{cfg.N, cfg.C, cfg.D, cfg.G, cfg.Step, cfg.RTTRefQueue, cfg.BufferLimit}
	for i, name := range [...]string{"N", "C", "D", "G", "Step", "RTTRefQueue", "BufferLimit"} {
		if v := vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fluid: %s = %g is not finite", name, v)
		}
	}
	r0 := cfg.R0()
	switch {
	case cfg.N <= 0:
		return nil, errors.New("fluid: N must be positive")
	case cfg.C <= 0:
		return nil, errors.New("fluid: C must be positive")
	case cfg.D < 0:
		return nil, errors.New("fluid: D must not be negative")
	case cfg.Law == nil:
		return nil, errors.New("fluid: Law is nil")
	case r0 <= 0 || math.IsInf(r0, 1):
		return nil, fmt.Errorf("fluid: R0 = D + RTTRefQueue/C = %g must be positive and finite", r0)
	}
	h := cfg.Step
	if h <= 0 {
		h = r0 / 50
	}
	lag := r0 / h
	if lag > maxLag {
		return nil, fmt.Errorf("fluid: Step = %g s keeps R0/Step = %g steps of delay history, cap %d", h, lag, maxLag)
	}
	// The delayed lookup reaches back at most lag+1 whole steps; +3
	// covers the interpolation pair and integer truncation.
	ringCap := int(lag) + 3
	return &Stepper{
		cfg:    cfg,
		h:      h,
		lag:    lag,
		w:      1,
		histQ:  make([]float64, ringCap),
		histQd: make([]float64, ringCap),
		drainC: cfg.C,
	}, nil
}

// StepSize returns the RK4 step in seconds.
func (s *Stepper) StepSize() float64 { return s.h }

// State returns the current integration state.
func (s *Stepper) State() State {
	return State{
		Step:  s.step,
		T:     float64(s.step) * s.h,
		W:     s.w,
		Alpha: s.alpha,
		Q:     s.q,
		Qdot:  s.ArrivalRate() - s.drainC,
	}
}

// SetAmbientQueue sets the ambient (externally simulated) queue
// contribution in packets. It is added to the fluid queue wherever the
// queue level feeds back into the model — the marking law, the
// queueing-delay term of the RTT, and the buffer cap — so the fluid
// flows react to the total occupancy of a shared bottleneck. Negative
// values clamp to zero.
func (s *Stepper) SetAmbientQueue(pkts float64) {
	if pkts < 0 || math.IsNaN(pkts) {
		pkts = 0
	}
	s.extQ = pkts
}

// SetDrainCapacity sets the effective drain rate of the fluid queue in
// packets/second — Config.C minus whatever bandwidth co-simulated
// packet flows consumed. Values are clamped to [C/1000, C]: the fluid
// share can be starved but never negative, and it can never exceed the
// physical link.
func (s *Stepper) SetDrainCapacity(c float64) {
	lo := s.cfg.C / 1000
	switch {
	case math.IsNaN(c) || c < lo:
		c = lo
	case c > s.cfg.C:
		c = s.cfg.C
	}
	s.drainC = c
}

// DrainCapacity returns the effective drain rate (packets/second).
func (s *Stepper) DrainCapacity() float64 { return s.drainC }

// ArrivalRate returns the instantaneous fluid arrival rate N·W/R in
// packets/second.
func (s *Stepper) ArrivalRate() float64 {
	return s.cfg.N * s.w / s.rtt(s.q)
}

// DepartureRate returns the rate at which fluid traffic leaves the
// bottleneck: the full drain capacity while backlogged, the arrival
// rate (capped by capacity) when the fluid queue is empty.
func (s *Stepper) DepartureRate() float64 {
	if s.q > 0 {
		return s.drainC
	}
	return math.Min(s.ArrivalRate(), s.drainC)
}

// Advance runs n consecutive steps.
func (s *Stepper) Advance(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Step advances the system by one RK4 step: push the current (q, q̇)
// into the delay history, evaluate the delayed marking law, integrate
// (W, α, q) with one RTT evaluation per stage, and clamp to the physical
// region (W ≥ 1, α ∈ [0, 1], 0 ≤ q ≤ buffer). The delayed marking p is
// held at its step-start value across the four stages — it varies on the
// R₀ scale, many steps — and so is the α that dW/dt reads, while dα/dt is
// integrated beside it: that is what every golden pins. The arithmetic
// is held bit for bit by refStepper (kernel_test.go); DESIGN.md
// "Touching Stepper.Step" lists the rewrites that keep it so.
//
//dtlint:hotpath
func (s *Stepper) Step() {
	h, half := s.h, s.h/2
	n, g, drain := s.cfg.N, s.cfg.G, s.drainC
	w, alpha, q := s.w, s.alpha, s.q

	r := s.rtt(q)
	k1q := n*w/r - drain
	s.histQ[s.head] = q
	s.histQd[s.head] = k1q
	if s.head++; s.head == len(s.histQ) {
		s.head = 0
	}
	p := s.delayedP()
	k1w := 1/r - w*alpha*p/(2*r)
	k1a := g / r * (p - alpha)

	ws, as, qs := w+half*k1w, alpha+half*k1a, q+half*k1q
	r = s.rtt(qs)
	k2w := 1/r - ws*alpha*p/(2*r)
	k2a := g / r * (p - as)
	k2q := n*ws/r - drain

	ws, as, qs = w+half*k2w, alpha+half*k2a, q+half*k2q
	r = s.rtt(qs)
	k3w := 1/r - ws*alpha*p/(2*r)
	k3a := g / r * (p - as)
	k3q := n*ws/r - drain

	ws, as, qs = w+h*k3w, alpha+h*k3a, q+h*k3q
	r = s.rtt(qs)
	k4w := 1/r - ws*alpha*p/(2*r)
	k4a := g / r * (p - as)
	k4q := n*ws/r - drain

	s.w += h / 6 * (k1w + 2*k2w + 2*k3w + k4w)
	s.alpha += h / 6 * (k1a + 2*k2a + 2*k3a + k4a)
	s.q += h / 6 * (k1q + 2*k2q + 2*k3q + k4q)

	if s.w < 1 {
		s.w = 1
	}
	if s.alpha < 0 {
		s.alpha = 0
	} else if s.alpha > 1 {
		s.alpha = 1
	}
	if s.q < 0 {
		s.q = 0
	}
	if lim := s.cfg.BufferLimit; lim > 0 {
		lim -= s.extQ
		if lim < 0 {
			lim = 0
		}
		if s.q > lim {
			s.q = lim
		}
	}
	s.step++
}

// delayedP interpolates the queue state at t−R₀ from the ring history
// and evaluates the marking law on it (plus the ambient contribution);
// before the first R₀ the fluid queue was empty, unmarked.
//
//dtlint:hotpath
func (s *Stepper) delayedP() float64 {
	idx := float64(s.step) - s.lag
	i := int(idx)
	if i >= s.step { // a lag lost to rounding: the newest entry has no successor yet
		i = s.step - 1
	}
	if idx < 0 || i < 0 {
		return s.cfg.Law.P(s.extQ, 0)
	}
	frac := idx - float64(i)
	// Entries 0..step are pushed: i sits step+1−i ≤ len slots behind head.
	j := s.head - (s.step + 1 - i)
	if j < 0 {
		j += len(s.histQ)
	}
	k := j + 1
	if k == len(s.histQ) {
		k = 0
	}
	dq := s.histQ[j]*(1-frac) + s.histQ[k]*frac
	dqd := s.histQd[j]*(1-frac) + s.histQd[k]*frac
	return s.cfg.Law.P(dq+s.extQ, dqd)
}

// rtt returns the instantaneous round-trip time at fluid queue q: the
// propagation delay plus the queueing delay of the total occupancy
// (fluid plus ambient) draining at the full link rate.
//
//dtlint:hotpath
func (s *Stepper) rtt(q float64) float64 {
	if q < 0 {
		q = 0
	}
	q += s.extQ
	// Floor at 1ns: with D = 0 and an empty queue the instantaneous RTT
	// would otherwise vanish and the 1/R terms of the ODEs blow up.
	r := s.cfg.D + q/s.cfg.C
	if r < 1e-9 {
		r = 1e-9
	}
	return r
}
