package tcp

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func TestD2TCPVariantString(t *testing.T) {
	if D2TCP.String() != "d2tcp" {
		t.Fatal("name")
	}
	if !D2TCP.dctcpLike() || !DCTCP.dctcpLike() || Reno.dctcpLike() {
		t.Fatal("dctcpLike classification")
	}
	if !DefaultConfig(D2TCP).Variant.ect() {
		t.Fatal("D2TCP must be ECT")
	}
}

func TestUrgencyNeutralCases(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	s, _ := d.pair(0, 100*1460, DefaultConfig(D2TCP))
	// No deadline set → d = 1.
	if got := s.urgency(); got != 1 {
		t.Fatalf("urgency without deadline = %v", got)
	}
	// Deadline set but no RTT estimate yet → d = 1.
	s.Deadline = sim.FromDuration(time.Second)
	if got := s.urgency(); got != 1 {
		t.Fatalf("urgency without RTT sample = %v", got)
	}
}

func TestUrgencyClamping(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	s, _ := d.pair(0, 1000*1460, DefaultConfig(D2TCP))
	s.Start()
	if err := d.engine.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Absurdly tight deadline: d clamps at 2.
	s.Deadline = d.engine.Now().Add(time.Nanosecond)
	if got := s.urgency(); got != 2 {
		t.Fatalf("tight-deadline urgency = %v, want 2", got)
	}
	// Absurdly loose deadline: d clamps at 0.5.
	s.Deadline = d.engine.Now().Add(time.Hour)
	if got := s.urgency(); got != 0.5 {
		t.Fatalf("loose-deadline urgency = %v, want 0.5", got)
	}
	// Past deadline: maximum urgency.
	if err := d.engine.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Deadline = 1 // long past
	if got := s.urgency(); got != 2 {
		t.Fatalf("past-deadline urgency = %v, want 2", got)
	}
}

// The headline D2TCP behaviour: under identical marking, the tight-deadline
// flow backs off less and finishes first.
func TestD2TCPTightDeadlineFlowFinishesFirst(t *testing.T) {
	pol := aqm.NewSingleThresholdPackets(20, 1500)
	d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	const total = 2 << 20 // 2 MB each
	cfg := DefaultConfig(D2TCP)

	tight, _ := d.pair(0, total, cfg)
	slack, _ := d.pair(1, total, cfg)
	// Both flows fit their deadlines only if they get a fair share; the
	// tight one has barely enough time, the slack one has plenty.
	tight.Deadline = sim.FromDuration(40 * time.Millisecond)
	slack.Deadline = sim.FromDuration(10 * time.Second)
	tight.Start()
	slack.Start()
	if err := d.engine.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !tight.Completed() || !slack.Completed() {
		t.Fatalf("transfers incomplete: tight=%v slack=%v", tight.Completed(), slack.Completed())
	}
	if tight.CompletionTime() >= slack.CompletionTime() {
		t.Fatalf("tight-deadline flow finished at %v, slack at %v: priority inverted",
			tight.CompletionTime(), slack.CompletionTime())
	}
}

// Without deadlines, D2TCP must behave exactly like DCTCP (d = 1 always):
// same marking environment, statistically indistinguishable progress.
func TestD2TCPWithoutDeadlineMatchesDCTCP(t *testing.T) {
	run := func(v Variant) int64 {
		pol := aqm.NewSingleThresholdPackets(40, 1500)
		d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
		a, _ := d.pair(0, 0, DefaultConfig(v))
		b, _ := d.pair(1, 0, DefaultConfig(v))
		a.Start()
		b.Start()
		if err := d.engine.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return a.Acked() + b.Acked()
	}
	dctcp := run(DCTCP)
	d2tcp := run(D2TCP)
	if dctcp != d2tcp {
		t.Fatalf("deadline-free D2TCP diverged from DCTCP: %d vs %d bytes", d2tcp, dctcp)
	}
}
