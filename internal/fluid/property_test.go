package fluid

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepperInvariantsAdversarial sweeps the stepper across an
// adversarial parameter grid — tiny and huge flow counts, capacities,
// delays and gains, thresholds at and beyond the buffer, oversized
// steps, hostile initial conditions, and mid-run coupling-input abuse —
// and asserts the physical invariants after every step: the queue is
// never negative (and never exceeds the buffer), α stays in [0, 1],
// W ≥ 1, and no state component ever becomes NaN or ±Inf.
func TestStepperInvariantsAdversarial(t *testing.T) {
	laws := []MarkingLaw{
		SingleThreshold{K: 0},
		SingleThreshold{K: 40},
		DoubleThreshold{K1: 30, K2: 50},
		DoubleThreshold{K1: 50, K2: 30},
	}
	type combo struct {
		n, c, d, g, step, buf float64
		start                 State
	}
	var combos []combo
	for _, n := range []float64{0.5, 1, 40, 5000} {
		for _, c := range []float64{1e3, 1e7} {
			for _, d := range []float64{0, 1e-6, 1e-3} {
				combos = append(combos, combo{n: n, c: c, d: d, g: 1.0 / 16, buf: 600})
			}
		}
	}
	// Hostile extras: giant gain, oversized step (h > R₀), a saturating
	// warm start.
	combos = append(combos,
		combo{n: 40, c: 1e7, d: 1e-4, g: 2, buf: 600},
		combo{n: 40, c: 1e7, d: 1e-4, g: 1.0 / 16, step: 1e-3, buf: 600},
		combo{n: 40, c: 1e7, d: 1e-4, g: 1.0 / 16, buf: 600, start: State{W: 1e6, Alpha: 1, Q: 600}},
		combo{n: 1000, c: 1e5, d: 1e-4, g: 1.0 / 16, buf: 50},
	)

	rng := rand.New(rand.NewSource(7))
	for ci, cb := range combos {
		for li, law := range laws {
			cfg := Config{
				N: cb.n, C: cb.c, D: cb.d, G: cb.g,
				Law:         law,
				RTTRefQueue: 40,
				Step:        cb.step,
				BufferLimit: cb.buf,
			}
			stp, err := NewStepper(cfg)
			if err != nil {
				t.Fatalf("combo %d law %d: %v", ci, li, err)
			}
			setState(stp, cb.start)
			for step := 0; step < 2000; step++ {
				// Adversarial coupling inputs mid-run, including values
				// the setters must clamp.
				if step%97 == 0 {
					stp.SetAmbientQueue(rng.Float64()*2*cb.buf - cb.buf)
					stp.SetDrainCapacity(rng.Float64()*2*cb.c - cb.c/2)
				}
				stp.Step()
				st := stp.State()
				check := func(name string, v float64) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("combo %d law %d step %d: %s = %v", ci, li, step, name, v)
					}
				}
				check("W", st.W)
				check("alpha", st.Alpha)
				check("Q", st.Q)
				check("Qdot", st.Qdot)
				if st.Q < 0 {
					t.Fatalf("combo %d law %d step %d: negative queue %v", ci, li, step, st.Q)
				}
				if cb.buf > 0 && st.Q > cb.buf {
					t.Fatalf("combo %d law %d step %d: queue %v above buffer %v", ci, li, step, st.Q, cb.buf)
				}
				if st.Alpha < 0 || st.Alpha > 1 {
					t.Fatalf("combo %d law %d step %d: alpha %v outside [0,1]", ci, li, step, st.Alpha)
				}
				if st.W < 1 {
					t.Fatalf("combo %d law %d step %d: window %v below 1", ci, li, step, st.W)
				}
			}
		}
	}
}

// TestStepperStepHalvingConverges is a Richardson-style consistency
// check: halving the RK4 step must shrink the change in the computed
// steady-state queue mean. On a discontinuous relay law the formal
// order collapses, so the assertion is monotone-ish contraction of the
// halving deltas — |m(h/2)−m(h/4)| ≤ max(0.75·|m(h)−m(h/2)|, floor) —
// rather than the smooth-case factor of 16.
func TestStepperStepHalvingConverges(t *testing.T) {
	for _, tc := range []struct {
		name string
		law  MarkingLaw
		n    float64
	}{
		{"stable-dctcp", SingleThreshold{K: 40}, 20},
		{"relay-dctcp", SingleThreshold{K: 40}, 50},
		{"relay-dt", DoubleThreshold{K1: 30, K2: 50}, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				N: tc.n, C: 1e7 / 12, D: 100e-6, G: 1.0 / 16,
				Law:         tc.law,
				RTTRefQueue: 40,
				Duration:    80e-3,
				BufferLimit: 600,
			}
			h0 := base.R0() / 50
			mean := func(h float64) float64 {
				cfg := base
				cfg.Step = h
				res, err := Solve(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res.QueueMean
			}
			m1, m2, m3 := mean(h0), mean(h0/2), mean(h0/4)
			d1 := math.Abs(m1 - m2)
			d2 := math.Abs(m2 - m3)
			// floor: half a packet of absolute agreement is converged for
			// every claim this model backs.
			const floor = 0.5
			if d2 > d1*0.75 && d2 > floor {
				t.Fatalf("halving deltas not contracting: |m(h)-m(h/2)| = %.4f, |m(h/2)-m(h/4)| = %.4f (means %.3f %.3f %.3f)",
					d1, d2, m1, m2, m3)
			}
		})
	}
}
