package aqm

import (
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

func newTestCoDel(ecn bool) *CoDel {
	return &CoDel{Target: 100 * time.Microsecond, Interval: time.Millisecond, ECN: ecn}
}

func TestCoDelNames(t *testing.T) {
	if newTestCoDel(false).Name() != "codel" || newTestCoDel(true).Name() != "codel-ecn" {
		t.Fatal("names")
	}
}

func TestCoDelArrivalAlwaysAccepts(t *testing.T) {
	c := newTestCoDel(false)
	if c.OnArrival(0, 1<<30, pkt) != Accept {
		t.Fatal("CoDel must accept at enqueue")
	}
	c.OnDeparture(0, 0) // no-op
}

func TestCoDelStaysQuietBelowTarget(t *testing.T) {
	c := newTestCoDel(false)
	now := sim.TimeZero
	for i := 0; i < 10000; i++ {
		now = now.Add(10 * time.Microsecond)
		if v := c.OnDequeue(now, 50*time.Microsecond, 10*pkt); v != Accept {
			t.Fatalf("dropped below target at step %d", i)
		}
	}
	if c.dropping {
		t.Fatal("entered dropping state below target")
	}
}

func TestCoDelEntersDroppingAfterInterval(t *testing.T) {
	c := newTestCoDel(false)
	now := sim.TimeZero
	drops := 0
	// Sojourn pinned at 5× target with a full queue: after one interval
	// CoDel must start dropping, with accelerating frequency.
	for i := 0; i < 5000; i++ {
		now = now.Add(10 * time.Microsecond)
		if c.OnDequeue(now, 500*time.Microsecond, 50*pkt) == Drop {
			drops++
		}
	}
	if !c.dropping {
		t.Fatal("never entered dropping state")
	}
	if drops < 5 {
		t.Fatalf("drops = %d over 50 ms of persistent excess delay", drops)
	}
	// Drop spacing must accelerate: interval/√count shrinks.
	if got := c.controlInterval(); got >= c.interval() {
		t.Fatalf("control interval %v did not shrink (count=%d)", got, c.count)
	}
}

func TestCoDelExitsWhenDelayRecovers(t *testing.T) {
	c := newTestCoDel(false)
	now := sim.TimeZero
	for i := 0; i < 2000; i++ {
		now = now.Add(10 * time.Microsecond)
		c.OnDequeue(now, 500*time.Microsecond, 50*pkt)
	}
	if !c.dropping {
		t.Fatal("setup: not dropping")
	}
	now = now.Add(10 * time.Microsecond)
	if v := c.OnDequeue(now, 20*time.Microsecond, 10*pkt); v != Accept {
		t.Fatalf("verdict %v on recovered delay", v)
	}
	if c.dropping {
		t.Fatal("did not exit dropping state")
	}
}

func TestCoDelLastMTUProtected(t *testing.T) {
	c := newTestCoDel(false)
	now := sim.TimeZero
	for i := 0; i < 5000; i++ {
		now = now.Add(10 * time.Microsecond)
		// Huge sojourn but sub-MTU backlog: must never drop.
		if c.OnDequeue(now, time.Second, 1000) == Drop {
			t.Fatal("dropped the last packet")
		}
	}
}

func TestCoDelECNMarksInsteadOfDropping(t *testing.T) {
	c := newTestCoDel(true)
	now := sim.TimeZero
	marks, drops := 0, 0
	for i := 0; i < 5000; i++ {
		now = now.Add(10 * time.Microsecond)
		switch c.OnDequeue(now, 500*time.Microsecond, 50*pkt) {
		case AcceptMark:
			marks++
		case Drop:
			drops++
		}
	}
	if marks == 0 || drops != 0 {
		t.Fatalf("ECN mode: marks=%d drops=%d", marks, drops)
	}
}

func TestCoDelDefaults(t *testing.T) {
	var c CoDel
	if c.target() != 5*time.Millisecond || c.interval() != 100*time.Millisecond {
		t.Fatal("RFC defaults")
	}
}

// TestCoDelRestartsFromRecentCount pins RFC 8289 §5.4: re-entering the
// dropping state within one interval of the last scheduled drop resumes
// at lastCount − 2 rather than at 1, so a queue that recovers briefly is
// not granted a slow restart. Leaving right after the fourth drop, whose
// successor was due Interval/2 later, puts the re-entry one interval of
// standing sojourn after the exit: about Interval/2 past that successor.
func TestCoDelRestartsFromRecentCount(t *testing.T) {
	c := newTestCoDel(false)
	now := sim.TimeZero
	for c.count < 4 {
		now = now.Add(10 * time.Microsecond)
		c.OnDequeue(now, 500*time.Microsecond, 50*pkt)
	}
	lastCount, due := c.lastCount, c.dropNext
	now = now.Add(10 * time.Microsecond)
	if c.OnDequeue(now, 20*time.Microsecond, 10*pkt); c.dropping {
		t.Fatal("setup: did not leave the dropping state")
	}
	for !c.dropping {
		now = now.Add(10 * time.Microsecond)
		c.OnDequeue(now, 500*time.Microsecond, 50*pkt)
	}
	if gap := (now - due).Duration(); gap <= 200*time.Microsecond || gap >= c.interval()-200*time.Microsecond {
		t.Fatalf("setup: re-entered %v after the due drop, want well inside (0, %v)", gap, c.interval())
	}
	if c.count != lastCount-2 {
		t.Fatalf("re-entered at count %d, want lastCount−2 = %d", c.count, lastCount-2)
	}
}
