package aqm

import (
	"testing"

	"dtdctcp/internal/sim"
)

// fuzz walk parameters: packets are MTU-sized, the buffer matches the
// dumbbell scenarios (100 packets).
const (
	fuzzPkt = 1500
	fuzzCap = 100 * fuzzPkt
)

// clampThreshold maps an arbitrary fuzzed int into [0, fuzzCap], the range
// of thresholds a port could meaningfully be configured with.
func clampThreshold(k int) int {
	if k < 0 {
		k = -k
	}
	if k < 0 { // math.MinInt negates to itself
		return 0
	}
	return k % (fuzzCap + 1)
}

// walkQueue replays ops as an arrival/departure trace against the policy,
// tracking occupancy like a port would, and hands every arrival verdict to
// check. Even op bytes are arrivals, odd are departures.
func walkQueue(t *testing.T, p Policy, ops []byte, check func(qlen int, v Verdict)) {
	t.Helper()
	qlen := 0
	var now sim.Time
	for _, op := range ops {
		now += sim.Time(op) + 1
		if op%2 == 0 {
			v := p.OnArrival(now, qlen, fuzzPkt)
			check(qlen, v)
			if v != Drop && qlen+fuzzPkt <= fuzzCap {
				qlen += fuzzPkt
			}
			continue
		}
		if qlen >= fuzzPkt {
			qlen -= fuzzPkt
			p.OnDeparture(now, qlen)
		}
	}
}

// FuzzDoubleThreshold checks the DT-DCTCP marker over arbitrary threshold
// pairs and queue trajectories: it must never panic or drop, must mark
// whenever the occupancy is at or above both thresholds, and must stay
// silent below both — the K_min/K_max envelope that holds in hysteresis
// mode (K1 > K2) and trend mode (K1 <= K2) alike.
func FuzzDoubleThreshold(f *testing.F) {
	// Paper configurations: 30/50 packets (simulation, trend mode) and
	// 34 KB/28 KB (testbed, hysteresis mode), plus degenerate edges.
	f.Add(30*fuzzPkt, 50*fuzzPkt, []byte{0, 0, 0, 2, 1, 4, 3, 0, 255, 254})
	f.Add(34*1024, 28*1024, []byte{0, 2, 4, 6, 1, 3, 5, 7, 0, 0})
	f.Add(0, 0, []byte{0, 1, 2, 3})
	f.Add(fuzzPkt, fuzzPkt, []byte{0, 0, 1, 1})
	f.Add(fuzzCap, 0, []byte{0, 2, 4, 1})
	f.Fuzz(func(t *testing.T, k1, k2 int, ops []byte) {
		k1, k2 = clampThreshold(k1), clampThreshold(k2)
		kmin, kmax := k1, k2
		if kmin > kmax {
			kmin, kmax = kmax, kmin
		}
		p := &DoubleThreshold{K1: k1, K2: k2}
		walkQueue(t, p, ops, func(qlen int, v Verdict) {
			if v != Accept && v != AcceptMark {
				t.Fatalf("K1=%d K2=%d qlen=%d: verdict %v, want accept or mark", k1, k2, qlen, v)
			}
			if qlen >= kmax && v != AcceptMark {
				t.Fatalf("K1=%d K2=%d: qlen=%d above both thresholds but not marked", k1, k2, qlen)
			}
			if qlen < kmin && v != Accept {
				t.Fatalf("K1=%d K2=%d: qlen=%d below both thresholds but marked", k1, k2, qlen)
			}
		})
	})
}

// FuzzSingleThreshold checks the DCTCP marker: stateless, so the verdict
// must be exactly (qlen >= K), and never a drop or panic.
func FuzzSingleThreshold(f *testing.F) {
	f.Add(65*fuzzPkt, []byte{0, 0, 2, 1, 3, 0})
	f.Add(0, []byte{0, 1})
	f.Add(fuzzCap, []byte{0, 2, 4, 6})
	f.Fuzz(func(t *testing.T, k int, ops []byte) {
		k = clampThreshold(k)
		p := &SingleThreshold{K: k}
		walkQueue(t, p, ops, func(qlen int, v Verdict) {
			want := Accept
			if qlen >= k {
				want = AcceptMark
			}
			if v != want {
				t.Fatalf("K=%d qlen=%d: verdict %v, want %v", k, qlen, v, want)
			}
		})
	})
}
