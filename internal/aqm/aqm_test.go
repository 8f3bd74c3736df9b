package aqm

import (
	"testing"
	"testing/quick"
)

const pkt = 1500 // bytes, the paper's packet size

func TestVerdictString(t *testing.T) {
	tests := []struct {
		v    Verdict
		want string
	}{
		{Accept, "accept"},
		{AcceptMark, "mark"},
		{Drop, "drop"},
		{Verdict(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Verdict(%d).String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestDropTailAlwaysAccepts(t *testing.T) {
	p := NewDropTail()
	if p.Name() != "droptail" {
		t.Fatalf("Name = %q", p.Name())
	}
	for _, q := range []int{0, 1, 1 << 20, 1 << 30} {
		if got := p.OnArrival(0, q, pkt); got != Accept {
			t.Fatalf("OnArrival(%d) = %v, want accept", q, got)
		}
	}
	p.OnDeparture(0, 0) // must not panic
}

func TestSingleThresholdMarksAtK(t *testing.T) {
	p := NewSingleThresholdPackets(40, pkt)
	if p.K != 40*pkt {
		t.Fatalf("K = %d, want %d", p.K, 40*pkt)
	}
	tests := []struct {
		qlen int
		want Verdict
	}{
		{0, Accept},
		{39 * pkt, Accept},
		{40*pkt - 1, Accept},
		{40 * pkt, AcceptMark},
		{41 * pkt, AcceptMark},
	}
	for _, tt := range tests {
		if got := p.OnArrival(0, tt.qlen, pkt); got != tt.want {
			t.Errorf("OnArrival(qlen=%d) = %v, want %v", tt.qlen, got, tt.want)
		}
	}
	if p.Name() != "dctcp-single" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// Property: the single threshold is memoryless — the verdict depends only
// on the occupancy, never on history.
func TestPropertySingleThresholdMemoryless(t *testing.T) {
	f := func(history []uint32, probe uint32) bool {
		k := 40 * pkt
		fresh := &SingleThreshold{K: k}
		worn := &SingleThreshold{K: k}
		for _, h := range history {
			worn.OnArrival(0, int(h%200)*pkt, pkt)
			worn.OnDeparture(0, int(h%150*pkt))
		}
		q := int(probe%200) * pkt
		return fresh.OnArrival(0, q, pkt) == worn.OnArrival(0, q, pkt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleThresholdRisingUsesK1(t *testing.T) {
	p := NewDoubleThresholdPackets(30, 50, pkt)
	// Strictly growing queue: occupancy above EWMA, so threshold is K1.
	var got []Verdict
	for q := 0; q <= 60; q += 5 {
		got = append(got, p.OnArrival(0, q*pkt, pkt))
	}
	// q = 0 seeds the average; the verdicts for q=30..60 must be marks.
	for i, q := 0, 0; q <= 60; i, q = i+1, q+5 {
		want := Accept
		if q >= 30 && q > 0 {
			want = AcceptMark
		}
		if got[i] != want {
			t.Errorf("rising q=%d: verdict %v, want %v", q, got[i], want)
		}
	}
	if !p.lastRising {
		t.Error("Rising() = false during growth")
	}
}

func TestDoubleThresholdFallingUsesK2(t *testing.T) {
	p := NewDoubleThresholdPackets(30, 50, pkt)
	// Grow to 80 packets so the EWMA settles high enough, then fall.
	for q := 0; q <= 80; q++ {
		p.OnArrival(0, q*pkt, pkt)
	}
	// Drive the average up by holding at 80 for a while.
	for i := 0; i < 400; i++ {
		p.OnArrival(0, 80*pkt, pkt)
	}
	// Now fall steeply: occupancy below EWMA → threshold K2 = 50.
	marked := make(map[int]bool)
	for q := 79; q >= 0; q-- {
		v := p.OnArrival(0, q*pkt, pkt)
		marked[q] = v == AcceptMark
	}
	if !marked[60] || !marked[50] {
		t.Error("falling queue at/above K2 not marked")
	}
	if marked[49] || marked[35] || marked[10] {
		t.Error("falling queue below K2 marked (early release violated)")
	}
	if p.lastRising {
		t.Error("Rising() = true during fall")
	}
}

func TestDoubleThresholdClassicHysteresis(t *testing.T) {
	// Testbed parameterization: K1 > K2 (34 KB / 28 KB).
	p := &DoubleThreshold{K1: 34 << 10, K2: 28 << 10}
	// Rising: no mark below 34 KB, mark at/above.
	if v := p.OnArrival(0, 0, pkt); v != Accept {
		t.Fatalf("seed arrival = %v", v)
	}
	if v := p.OnArrival(0, 30<<10, pkt); v != Accept {
		t.Errorf("rising 30KB = %v, want accept (below K1)", v)
	}
	if v := p.OnArrival(0, 35<<10, pkt); v != AcceptMark {
		t.Errorf("rising 35KB = %v, want mark", v)
	}
	// Hold high, then fall: marking persists until below 28 KB.
	for i := 0; i < 400; i++ {
		p.OnArrival(0, 40<<10, pkt)
	}
	if v := p.OnArrival(0, 30<<10, pkt); v != AcceptMark {
		t.Errorf("falling 30KB = %v, want mark (above K2)", v)
	}
	for i := 0; i < 50; i++ {
		p.OnArrival(0, 29<<10, pkt)
	}
	if v := p.OnArrival(0, 27<<10, pkt); v != Accept {
		t.Errorf("falling 27KB = %v, want accept (below K2)", v)
	}
}

func TestDoubleThresholdDepartureFeedsTrend(t *testing.T) {
	p := NewDoubleThresholdPackets(30, 50, pkt)
	for q := 0; q <= 60; q++ {
		p.OnArrival(0, q*pkt, pkt)
	}
	// Let the trend estimator converge at the plateau.
	for i := 0; i < 400; i++ {
		p.OnArrival(0, 60*pkt, pkt)
	}
	// A burst of departures drags the trend down even with no arrivals.
	for q := 60; q >= 40; q-- {
		p.OnDeparture(0, q*pkt)
	}
	if p.lastRising {
		t.Error("Rising() = true after a departure-only drain")
	}
	// Next arrival at 45 packets (below K2, falling) must not be marked.
	if v := p.OnArrival(0, 45*pkt, pkt); v != AcceptMark && v != Accept {
		t.Fatalf("unexpected verdict %v", v)
	}
	if v := p.OnArrival(0, 44*pkt, pkt); v != Accept {
		t.Errorf("falling 44 pkts = %v, want accept", v)
	}
}

// Property: DT-DCTCP's verdict is always at least as aggressive as a
// single threshold at max(K1,K2) and never more aggressive than a single
// threshold at min(K1,K2), for any queue trajectory.
func TestPropertyDoubleThresholdBounded(t *testing.T) {
	f := func(walk []int8, k1p, k2p uint8) bool {
		k1 := (int(k1p%60) + 5) * pkt
		k2 := (int(k2p%60) + 5) * pkt
		lo, hi := k1, k2
		if lo > hi {
			lo, hi = hi, lo
		}
		dt := &DoubleThreshold{K1: k1, K2: k2}
		loose := &SingleThreshold{K: hi}
		tight := &SingleThreshold{K: lo}
		q := 0
		for _, step := range walk {
			q += int(step) * pkt / 4
			if q < 0 {
				q = 0
			}
			vdt := dt.OnArrival(0, q, pkt)
			vloose := loose.OnArrival(0, q, pkt)
			vtight := tight.OnArrival(0, q, pkt)
			if vloose == AcceptMark && vdt != AcceptMark {
				return false // DT must mark whenever q ≥ max(K1,K2)
			}
			if vtight == Accept && vdt == AcceptMark {
				return false // DT must not mark when q < min(K1,K2)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyTrivialHooks(t *testing.T) {
	// The no-op hooks and marker methods of every law, pinned so an
	// accidental behaviour change (e.g. a hook gaining state) is caught.
	st := &SingleThreshold{K: 40 * pkt}
	st.OnDeparture(0, 10*pkt)
	if st.OnArrival(0, 39*pkt, pkt) != Accept {
		t.Fatal("single threshold changed by hooks")
	}

	pie := &PIE{DrainRateBps: 125e6}
	if !pie.MarkSubstitutesDrop() {
		t.Fatal("PIE must substitute drops")
	}

	codel := newTestCoDel(true)
	codel.OnDeparture(0, 5*pkt)
	if !codel.MarkSubstitutesDrop() {
		t.Fatal("CoDel must substitute drops")
	}
	if codel.controlInterval() != codel.interval() {
		t.Fatal("control interval with count 0 should be the base interval")
	}

	dt := NewDoubleThresholdPackets(30, 50, pkt)
	if dt.Name() != "dt-dctcp" {
		t.Fatal("name")
	}
	if dt.lastRising {
		t.Fatal("fresh trend-mode marker should not report marking")
	}
	hyst := &DoubleThreshold{K1: 34 << 10, K2: 28 << 10}
	hyst.OnArrival(0, 40<<10, pkt)
	if !hyst.marking {
		t.Fatal("hysteresis marker should be ON above K1")
	}
	hyst.OnDeparture(0, 20<<10)
	if hyst.marking {
		t.Fatal("hysteresis marker should release below K2 on departure")
	}
}
