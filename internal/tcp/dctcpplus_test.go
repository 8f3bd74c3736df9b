package tcp

import (
	"math/rand"
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
)

func TestPlusStateString(t *testing.T) {
	tests := []struct {
		st   PlusState
		want string
	}{
		{PlusNormal, "DCTCP_NORMAL"},
		{PlusTimeInc, "DCTCP_TIME_INC"},
		{PlusTimeDes, "DCTCP_TIME_DES"},
		{PlusState(99), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.st.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if DCTCPPlus.String() != "dctcp+" {
		t.Fatal("variant name")
	}
	if !DCTCPPlus.dctcpLike() {
		t.Fatal("DCTCP+ must run the α estimator")
	}
	if !DefaultConfig(DCTCPPlus).Variant.ect() {
		t.Fatal("DCTCP+ must be ECT")
	}
}

// Property: under arbitrary adversarial congestion/floor streams the state
// machine never leaves {NORMAL, TIME_INC, TIME_DES}, the slow timer stays
// in [0, slowTimerMax], and the timer is zero exactly in DCTCP_NORMAL.
func TestPropertyPlusStateMachineClosure(t *testing.T) {
	d := newDumbbell(t, 1, netsim.Gbps, 25*time.Microsecond, 100, nil)
	s, _ := d.pair(0, 0, DefaultConfig(DCTCPPlus))
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := s.pacer()
		p.state, p.slowTime, p.congested = PlusNormal, 0, false
		for step := 0; step < 500; step++ {
			congested := rng.Intn(2) == 0
			atFloor := rng.Intn(2) == 0
			p.tick(congested, atFloor)
			if p.state != PlusNormal && p.state != PlusTimeInc && p.state != PlusTimeDes {
				t.Fatalf("seed %d step %d: state left the machine: %v", seed, step, p.state)
			}
			if p.slowTime < 0 || p.slowTime > slowTimerMax {
				t.Fatalf("seed %d step %d: slow timer %v outside [0, %v]", seed, step, p.slowTime, slowTimerMax)
			}
			if (p.state == PlusNormal) != (p.slowTime == 0) {
				t.Fatalf("seed %d step %d: state %v with slow timer %v", seed, step, p.state, p.slowTime)
			}
			if p.congested {
				t.Fatalf("seed %d step %d: tick left the congestion latch set", seed, step)
			}
			// Whenever the timer is armed-able, every pacing draw must stay
			// inside the configured band [slowTime/2, 3·slowTime/2).
			if p.slowTime > 0 {
				for i := 0; i < 5; i++ {
					delay := p.delay()
					if delay < p.slowTime/2 || delay >= p.slowTime*3/2 {
						t.Fatalf("seed %d step %d: pacing delay %v outside [%v, %v)",
							seed, step, delay, p.slowTime/2, p.slowTime*3/2)
					}
				}
			}
		}
	}
}

// The reference transition table, step by step.
func TestPlusStateMachineTransitions(t *testing.T) {
	d := newDumbbell(t, 1, netsim.Gbps, 25*time.Microsecond, 100, nil)
	s, _ := d.pair(0, 0, DefaultConfig(DCTCPPlus))
	p := s.pacer()

	// NORMAL ignores congestion away from the floor.
	p.tick(true, false)
	if p.state != PlusNormal || p.slowTime != 0 {
		t.Fatalf("congestion off-floor moved NORMAL: %v %v", p.state, p.slowTime)
	}
	// Congestion at the floor enters TIME_INC and grows by one unit.
	p.tick(true, true)
	if p.state != PlusTimeInc || p.slowTime != backoffUnit {
		t.Fatalf("after floor congestion: %v %v", p.state, p.slowTime)
	}
	// Persistent congestion keeps growing additively, capped at max.
	for i := 0; i < 1000; i++ {
		p.tick(true, false)
	}
	if p.state != PlusTimeInc || p.slowTime != slowTimerMax {
		t.Fatalf("sustained congestion: %v %v, want TIME_INC at cap %v", p.state, p.slowTime, slowTimerMax)
	}
	// One clear window moves to TIME_DES without shrinking yet.
	p.tick(false, false)
	if p.state != PlusTimeDes || p.slowTime != slowTimerMax {
		t.Fatalf("first clear window: %v %v", p.state, p.slowTime)
	}
	// Congestion in TIME_DES bounces back to TIME_INC and grows (cap holds).
	p.tick(true, false)
	if p.state != PlusTimeInc || p.slowTime != slowTimerMax {
		t.Fatalf("bounce back: %v %v", p.state, p.slowTime)
	}
	// Clear windows halve the timer down to the threshold, then NORMAL.
	p.tick(false, false) // → TIME_DES
	prev := p.slowTime
	for i := 0; p.state == PlusTimeDes && i < 100; i++ {
		p.tick(false, false)
		if p.state == PlusTimeDes && p.slowTime >= prev {
			t.Fatalf("clear window did not shrink the timer: %v → %v", prev, p.slowTime)
		}
		prev = p.slowTime
	}
	if p.state != PlusNormal || p.slowTime != 0 {
		t.Fatalf("timer did not snap back to NORMAL: %v %v", p.state, p.slowTime)
	}
}

// Other variants carry no pacer and report the neutral state.
func TestPlusAccessorsOnOtherVariants(t *testing.T) {
	d := newDumbbell(t, 1, netsim.Gbps, 25*time.Microsecond, 100, nil)
	s, _ := d.pair(0, 0, DefaultConfig(DCTCP))
	if s.pacer() != nil || s.ext != nil {
		t.Fatal("DCTCP sender grew a pacer")
	}
}

// plusIncast drives an incast round set hot enough to collapse windows to
// the floor and returns the senders after runFor of simulated time.
func plusIncast(t *testing.T, nSenders int, seedOffset int64, runFor time.Duration) []*Sender {
	t.Helper()
	pol := aqm.NewSingleThresholdPackets(10, 1500)
	d := newDumbbell(t, nSenders, 200*netsim.Mbps, 25*time.Microsecond, 20, pol)
	cfg := DefaultConfig(DCTCPPlus)
	cfg.RTOMin = 10 * time.Millisecond // datacenter floor, as in the paper's incast runs
	cfg.RTOInitial = 10 * time.Millisecond
	var senders []*Sender
	for i := 0; i < nSenders; i++ {
		c := cfg
		c.PacingSeed = seedOffset + int64(i) + 1
		s, _ := d.pair(i, 0, c)
		s.Start()
		senders = append(senders, s)
	}
	if err := d.engine.RunFor(runFor); err != nil {
		t.Fatal(err)
	}
	return senders
}

// End-to-end: a hot incast must actually drive senders into the slow-timer
// regime — backoffs happen, paced segments flow, and every observed state
// stays inside the machine.
func TestPlusIncastEngagesSlowTimer(t *testing.T) {
	senders := plusIncast(t, 16, 0, 200*time.Millisecond)
	var backoffs, paced uint64
	for _, s := range senders {
		st := s.pacer().state
		if st != PlusNormal && st != PlusTimeInc && st != PlusTimeDes {
			t.Fatalf("sender in invalid state %v", st)
		}
		if s.pacer().slowTime < 0 || s.pacer().slowTime > slowTimerMax {
			t.Fatalf("slow timer %v outside [0, %v]", s.pacer().slowTime, slowTimerMax)
		}
		stats := s.Stats()
		backoffs += stats.SlowTimerBackoffs
		paced += stats.PacedSegments
		if s.Acked() == 0 {
			t.Fatal("a sender moved no data")
		}
	}
	if backoffs == 0 {
		t.Fatal("vacuous: incast never triggered a slow-timer backoff")
	}
	if paced == 0 {
		t.Fatal("vacuous: no segment was ever released by the pacer")
	}
}

// Determinism: identical seeds give identical transfer and pacing stats;
// the pacing RNG is private per sender and derived only from PacingSeed.
func TestPlusPacingDeterministicPerSeed(t *testing.T) {
	a := plusIncast(t, 8, 100, 60*time.Millisecond)
	b := plusIncast(t, 8, 100, 60*time.Millisecond)
	for i := range a {
		sa, sb := a[i].Stats(), b[i].Stats()
		if sa != sb || a[i].Acked() != b[i].Acked() {
			t.Fatalf("sender %d diverged across identical runs:\n%+v\n%+v", i, sa, sb)
		}
	}
	// A different pacing seed must actually change behaviour somewhere —
	// otherwise the seed is dead plumbing.
	c := plusIncast(t, 8, 9000, 60*time.Millisecond)
	same := true
	for i := range a {
		if a[i].Stats() != c[i].Stats() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing every pacing seed changed nothing")
	}
}
