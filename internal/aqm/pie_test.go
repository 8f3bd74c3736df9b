package aqm

import (
	"math/rand"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

func newTestPIE(ecn bool) *PIE {
	return &PIE{
		Target:       time.Millisecond,
		TUpdate:      time.Millisecond,
		DrainRateBps: 125e6, // 1 Gbps
		ECN:          ecn,
		Rand:         rand.New(rand.NewSource(1)),
	}
}

func TestPIENames(t *testing.T) {
	if newTestPIE(true).Name() != "pie-ecn" || newTestPIE(false).Name() != "pie" {
		t.Fatal("names")
	}
}

func TestPIEProbabilityRisesUnderPersistentDelay(t *testing.T) {
	p := newTestPIE(false)
	// Queue pinned at 10× target delay: 125e6 B/s × 10 ms = 1.25 MB.
	const qlen = 1250000
	now := sim.TimeZero
	for i := 0; i < 200; i++ {
		now = now.Add(time.Millisecond)
		p.OnArrival(now, qlen, pkt)
	}
	if p.prob < 0.05 {
		t.Fatalf("prob = %v after 200 ms of 10× target delay, want substantial", p.prob)
	}
}

func TestPIEProbabilityDecaysWhenIdle(t *testing.T) {
	p := newTestPIE(false)
	now := sim.TimeZero
	const qlen = 1250000
	for i := 0; i < 200; i++ {
		now = now.Add(time.Millisecond)
		p.OnArrival(now, qlen, pkt)
	}
	high := p.prob
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Millisecond)
		p.OnDeparture(now, 0)
	}
	if p.prob >= high/4 {
		t.Fatalf("prob %v did not decay from %v on an empty queue", p.prob, high)
	}
}

func TestPIEBurstProtection(t *testing.T) {
	p := newTestPIE(false)
	// Below half target and calm controller: always accept.
	for i := 0; i < 1000; i++ {
		if v := p.OnArrival(sim.Time(i)*1000, 10*pkt, pkt); v != Accept {
			t.Fatalf("verdict %v during small burst", v)
		}
	}
}

func TestPIEECNMarksBelowCapDropsAbove(t *testing.T) {
	p := newTestPIE(true)
	p.prob = 0.05 // below the 0.1 ECN cap
	marks, drops := 0, 0
	now := sim.TimeZero
	const qlen = 1250000
	for i := 0; i < 5000; i++ {
		now = now.Add(10 * time.Microsecond) // below TUpdate: prob frozen-ish
		switch p.OnArrival(now, qlen, pkt) {
		case AcceptMark:
			marks++
		case Drop:
			drops++
		}
		p.prob = 0.05
	}
	if marks == 0 || drops != 0 {
		t.Fatalf("below cap: marks=%d drops=%d, want marks only", marks, drops)
	}

	p2 := newTestPIE(true)
	p2.prob = 0.5 // above the cap: ECN mode still drops
	drops = 0
	for i := 0; i < 2000; i++ {
		if p2.OnArrival(sim.Time(i)*10000, qlen, pkt) == Drop {
			drops++
		}
		p2.prob = 0.5
	}
	if drops == 0 {
		t.Fatal("above cap: expected drops in ECN mode")
	}
}

func TestPIEDefaults(t *testing.T) {
	p := &PIE{DrainRateBps: 125e6, Rand: rand.New(rand.NewSource(1))}
	if p.target() != 15*time.Millisecond || p.tUpdate() != 15*time.Millisecond {
		t.Fatal("RFC defaults")
	}
	zero := &PIE{Rand: rand.New(rand.NewSource(1))}
	if zero.delay(1e6) != 0 {
		t.Fatal("delay without drain rate should be 0")
	}
}
