package aqm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// phantomRate is the reference line rate for phantom tests: 1 Gbps in
// bytes/second, the dumbbell bottleneck of the paper's experiments.
const phantomRate = 125e6

func TestPhantomQueueConstruction(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero drain", func() { NewPhantomQueue(0, &SingleThreshold{K: 10}) })
	mustPanic("negative drain", func() { NewPhantomQueue(-1, &SingleThreshold{K: 10}) })
	mustPanic("nil inner", func() { NewPhantomQueue(phantomRate, nil) })

	p := NewPhantomQueue(phantomRate, &SingleThreshold{K: 65 * fuzzPkt})
	if !strings.HasPrefix(p.Name(), "phantom(") {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.vq != 0 {
		t.Fatalf("fresh virtual occupancy = %g", p.vq)
	}
}

// phantomWalk drives a phantom queue (and optional companions) through one
// arrival/departure trace with microsecond-scale gaps, tracking real
// occupancy like a port would. check sees each arrival's verdicts in the
// order the policies were passed.
func phantomWalk(rng *rand.Rand, steps int, policies []*PhantomQueue, check func(step int, verdicts []Verdict)) {
	qlen := 0
	var now sim.Time
	verdicts := make([]Verdict, len(policies))
	for step := 0; step < steps; step++ {
		now += sim.Time((rng.Int63n(50) + 1) * int64(time.Microsecond))
		if rng.Intn(3) < 2 { // bias toward arrivals so the virtual queue builds
			for i, p := range policies {
				verdicts[i] = p.OnArrival(now, qlen, fuzzPkt)
			}
			check(step, verdicts)
			if qlen+fuzzPkt <= fuzzCap {
				qlen += fuzzPkt
			}
		} else if qlen >= fuzzPkt {
			qlen -= fuzzPkt
			for _, p := range policies {
				p.OnDeparture(now, qlen)
			}
		}
	}
}

// Property: phantom marking is monotone in γ. A virtual queue draining
// slower (smaller γ) sits pointwise at or above one draining faster on the
// same trace, so with a monotone inner law every packet the faster-draining
// phantom marks, the slower-draining one must mark too.
func TestPropertyPhantomMarkingMonotoneInGamma(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(30*fuzzPkt + 1)
		g1 := 0.5 + rng.Float64()*0.4 // slower drain
		g2 := g1 + rng.Float64()*(1.0-g1) + 0.01
		slow := NewPhantomQueue(g1*phantomRate, &SingleThreshold{K: k})
		fast := NewPhantomQueue(g2*phantomRate, &SingleThreshold{K: k})
		phantomWalk(rng, 300, []*PhantomQueue{slow, fast}, func(step int, v []Verdict) {
			if slow.vq < fast.vq-1e-6 {
				t.Fatalf("seed %d step %d: slower drain γ=%.3f has smaller virtual queue (%.1f) than γ=%.3f (%.1f)",
					seed, step, g1, slow.vq, g2, fast.vq)
			}
			if v[1] == AcceptMark && v[0] != AcceptMark {
				t.Fatalf("seed %d step %d: γ=%.3f marks but slower γ=%.3f does not", seed, step, g2, g1)
			}
		})
	}
}

// Metamorphic property: PQ(γ=1, K) over a SingleThreshold inner law is
// verdict-exact against an independently written rate-C fluid recurrence
// q ← max(0, q − C·Δt) fed to the same threshold — the γ=1 phantom queue
// is exactly the fluid queue of the paper's analysis, not an approximation.
func TestPropertyPhantomGammaOneMatchesFluidRecurrence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(65*fuzzPkt + 1)
		pq := NewPhantomQueue(phantomRate, &SingleThreshold{K: k})
		ref := &SingleThreshold{K: k}
		var q float64     // fluid occupancy
		var last sim.Time // fluid drain timestamp, mirroring the phantom's
		started := false
		drain := func(now sim.Time) {
			if !started {
				last, started = now, true
				return
			}
			q = math.Max(0, q-phantomRate*(now-last).Duration().Seconds())
			last = now
		}
		qlen := 0
		var now sim.Time
		for step := 0; step < 400; step++ {
			now += sim.Time((rng.Int63n(50) + 1) * int64(time.Microsecond))
			if rng.Intn(3) < 2 {
				got := pq.OnArrival(now, qlen, fuzzPkt)
				drain(now)
				want := ref.OnArrival(now, int(q), fuzzPkt)
				q += fuzzPkt
				if got != want {
					t.Fatalf("seed %d step %d: K=%d phantom %v, fluid recurrence %v (vq=%.1f fluid=%.1f)",
						seed, step, k, got, want, pq.vq, q)
				}
				if math.Abs(pq.vq-q) > 1e-6 {
					t.Fatalf("seed %d step %d: virtual occupancy %.6f diverged from fluid %.6f",
						seed, step, pq.vq, q)
				}
				if qlen+fuzzPkt <= fuzzCap {
					qlen += fuzzPkt
				}
			} else if qlen >= fuzzPkt {
				qlen -= fuzzPkt
				pq.OnDeparture(now, qlen)
				drain(now)
				ref.OnDeparture(now, int(q))
			}
		}
	}
}

// FuzzPhantomQueue checks the phantom queue over arbitrary thresholds,
// drain rates, and traces: it must never panic or drop, the virtual
// occupancy must stay within [0, total arrived bytes], and doubling the
// drain rate on the same trace must never add marks.
func FuzzPhantomQueue(f *testing.F) {
	// HULL's paper configuration (γ ≈ 0.95, K around 1 KB..tens of KB),
	// the γ=1 fluid edge, and a crawling drain.
	f.Add(10*fuzzPkt, int64(0.95*phantomRate), []byte{0, 0, 0, 2, 1, 4, 3, 0, 255, 254})
	f.Add(65*fuzzPkt, int64(phantomRate), []byte{0, 2, 4, 6, 1, 3, 5, 7, 0, 0})
	f.Add(0, int64(1), []byte{0, 1, 2, 3})
	f.Add(fuzzCap, int64(phantomRate), []byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, k int, drainBps int64, ops []byte) {
		k = clampThreshold(k)
		if drainBps <= 0 {
			drainBps = -drainBps + 1
		}
		if drainBps > int64(10*phantomRate) {
			drainBps = int64(10 * phantomRate)
		}
		p := NewPhantomQueue(float64(drainBps), &SingleThreshold{K: k})
		faster := NewPhantomQueue(2*float64(drainBps), &SingleThreshold{K: k})
		arrived := 0.0
		qlen := 0
		var now sim.Time
		for _, op := range ops {
			now += sim.Time((int64(op) + 1) * int64(time.Microsecond))
			if op%2 == 0 {
				v := p.OnArrival(now, qlen, fuzzPkt)
				vf := faster.OnArrival(now, qlen, fuzzPkt)
				arrived += fuzzPkt
				if v != Accept && v != AcceptMark {
					t.Fatalf("K=%d drain=%d qlen=%d: verdict %v, want accept or mark", k, drainBps, qlen, v)
				}
				if vf == AcceptMark && v != AcceptMark {
					t.Fatalf("K=%d drain=%d: doubled drain marks but base does not", k, drainBps)
				}
				if qlen+fuzzPkt <= fuzzCap {
					qlen += fuzzPkt
				}
			} else if qlen >= fuzzPkt {
				qlen -= fuzzPkt
				p.OnDeparture(now, qlen)
				faster.OnDeparture(now, qlen)
			}
			if vq := p.vq; vq < 0 || vq > arrived+1e-6 {
				t.Fatalf("K=%d drain=%d: virtual occupancy %.3f outside [0, %g]", k, drainBps, vq, arrived)
			}
		}
	})
}
