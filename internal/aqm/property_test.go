package aqm

import (
	"math/rand"
	"testing"

	"dtdctcp/internal/sim"
)

// Property: marking is monotone in queue depth. At any reachable policy
// state, if the marker marks an arrival at occupancy q it must also mark
// at any deeper occupancy, and if it accepts at q it must also accept at
// any shallower one. The probes run on value copies of the policy so the
// walked state advances only along the real trajectory.
func TestPropertyMarkingMonotoneInQueueDepth(t *testing.T) {
	cases := []struct {
		name string
		mk   func(rng *rand.Rand) Policy
	}{
		{"single", func(rng *rand.Rand) Policy {
			return &SingleThreshold{K: rng.Intn(fuzzCap + 1)}
		}},
		{"double-hysteresis", func(rng *rand.Rand) Policy {
			k2 := rng.Intn(fuzzCap)
			k1 := k2 + 1 + rng.Intn(fuzzCap-k2)
			return &DoubleThreshold{K1: k1, K2: k2} // K1 > K2
		}},
		{"double-trend", func(rng *rand.Rand) Policy {
			k1 := rng.Intn(fuzzCap)
			k2 := k1 + rng.Intn(fuzzCap-k1+1)
			return &DoubleThreshold{K1: k1, K2: k2} // K1 ≤ K2
		}},
	}
	// probe returns the verdict a value copy of the policy gives for an
	// arrival at qlen, leaving the original untouched.
	probe := func(p Policy, now sim.Time, qlen int) Verdict {
		switch v := p.(type) {
		case *SingleThreshold:
			cp := *v
			return cp.OnArrival(now, qlen, fuzzPkt)
		case *DoubleThreshold:
			cp := *v
			return cp.OnArrival(now, qlen, fuzzPkt)
		default:
			t.Fatalf("unexpected policy type %T", p)
			return 0
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := tc.mk(rng)
				qlen := 0
				var now sim.Time
				for step := 0; step < 200; step++ {
					now += sim.Time(rng.Intn(1000) + 1)
					// Probe monotonicity around the current occupancy
					// before advancing the real state.
					deeper := qlen + (1+rng.Intn(20))*fuzzPkt
					shallower := qlen - (1+rng.Intn(20))*fuzzPkt
					if shallower < 0 {
						shallower = 0
					}
					got := probe(p, now, qlen)
					if got == AcceptMark {
						if dv := probe(p, now, deeper); dv != AcceptMark {
							t.Fatalf("seed %d step %d: marks at %d but not at deeper %d", seed, step, qlen, deeper)
						}
					}
					if got == Accept && shallower < qlen {
						if sv := probe(p, now, shallower); sv != Accept {
							t.Fatalf("seed %d step %d: accepts at %d but marks at shallower %d", seed, step, qlen, shallower)
						}
					}
					// Advance the real trajectory one arrival or departure.
					if rng.Intn(2) == 0 {
						v := p.OnArrival(now, qlen, fuzzPkt)
						if v != Drop && qlen+fuzzPkt <= fuzzCap {
							qlen += fuzzPkt
						}
					} else if qlen >= fuzzPkt {
						qlen -= fuzzPkt
						p.OnDeparture(now, qlen)
					}
				}
			}
		})
	}
}

// Metamorphic property: DT-DCTCP with K1 = K2 = K is *exactly* the
// single-threshold DCTCP marker — identical verdicts on every arrival of
// every trajectory, hysteresis degenerated away. This is the paper's own
// sanity condition: the double threshold generalizes DCTCP, it does not
// redefine it.
func TestPropertyDegenerateDTEqualsSingleThreshold(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(fuzzCap + 1)
		dt := &DoubleThreshold{K1: k, K2: k}
		st := &SingleThreshold{K: k}
		qlen := 0
		var now sim.Time
		for step := 0; step < 300; step++ {
			now += sim.Time(rng.Intn(1000) + 1)
			if rng.Intn(2) == 0 {
				vd := dt.OnArrival(now, qlen, fuzzPkt)
				vs := st.OnArrival(now, qlen, fuzzPkt)
				if vd != vs {
					t.Fatalf("seed %d step %d: K=%d qlen=%d: DT(K,K)=%v, single(K)=%v",
						seed, step, k, qlen, vd, vs)
				}
				if vd != Drop && qlen+fuzzPkt <= fuzzCap {
					qlen += fuzzPkt
				}
			} else if qlen >= fuzzPkt {
				qlen -= fuzzPkt
				dt.OnDeparture(now, qlen)
				st.OnDeparture(now, qlen)
			}
		}
	}
}
