package tcp

import (
	"reflect"
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// A reopened connection is the connection the constructors build: after a
// transfer that exercised marks, losses and (for DCTCP+) the pacer, every
// field of the reused storage equals a freshly constructed endpoint's,
// the kept timers are unarmed, and the DCTCP+ pacing RNG yields the
// stream of a new source.
func TestReopenEqualsConstruction(t *testing.T) {
	for _, v := range []Variant{Reno, RenoECN, DCTCP, Cubic, D2TCP, DCTCPPlus} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			// A 20-packet buffer overflows under sixteen initial windows.
			d := newDumbbell(t, 16, 1*netsim.Gbps, 25*time.Microsecond, 20, aqm.NewSingleThresholdPackets(5, 1500))
			cfg := DefaultConfig(v)
			cfg.AckEvery = 2
			cfg.RTOMin, cfg.RTOInitial = 2*time.Millisecond, 2*time.Millisecond
			var snd []*Sender
			var rcv []*Receiver
			for i := range d.senders {
				s, r := d.pair(i, 200<<10, cfg)
				s.Deadline = sim.FromDuration(time.Second)
				s.OnComplete = func(*Sender, sim.Time) {}
				s.Start()
				snd, rcv = append(snd, s), append(rcv, r)
			}
			if err := d.engine.RunFor(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			var retx uint64
			for i, s := range snd {
				if !s.Completed() {
					t.Fatalf("transfer %d incomplete", i)
				}
				retx += s.Stats().Retransmissions
				d.senders[i].Unregister(s.Flow())
				d.rcvHost.Unregister(s.Flow())
			}
			if retx == 0 {
				t.Fatal("no retransmission: the storage was never dirtied by recovery")
			}

			// Reopen under a different configuration than the storage was
			// built with, and compare with construction.
			next := DefaultConfig(v)
			next.G, next.RTOMin = 1.0/8, 7*time.Millisecond
			next.PacingSeed = 99
			host := d.senders[0]
			s, r := snd[0], rcv[0]
			if !s.Reopen(host, 100, d.rcvHost.ID(), 5000, next) || !r.Reopen(d.rcvHost, 100, host.ID(), next) {
				t.Fatal("Reopen refused a retired connection")
			}
			fs := NewSender(host, 101, d.rcvHost.ID(), 5000, next)
			fr := NewReceiver(d.rcvHost, 101, host.ID(), next)

			if s.rtoTimer.Armed() || r.ackTimer.Armed() || (s.ext != nil && s.ext.plus.timer.Armed()) {
				t.Fatal("a reopened connection has an armed timer")
			}
			if (s.pacer() != nil) != (v == DCTCPPlus) {
				t.Fatalf("pacer present = %v for %v", s.pacer() != nil, v)
			}
			if (s.ext != nil) != (v == DCTCPPlus || v == Cubic) {
				t.Fatalf("variant state present = %v for %v", s.ext != nil, v)
			}
			if p := s.pacer(); p != nil {
				for i := 0; i < 4; i++ {
					if a, b := p.rng.Int63(), fs.pacer().rng.Int63(); a != b {
						t.Fatalf("pacing draw %d: reopened %d, constructed %d", i, a, b)
					}
				}
			}
			if s.ext != nil {
				gx, fx := *s.ext, *fs.ext
				gx.plus.timer, gx.plus.rng, fx.plus.timer, fx.plus.rng = sim.Timer{}, nil, sim.Timer{}, nil
				if !reflect.DeepEqual(gx, fx) {
					t.Fatalf("variant state: reopened %+v, constructed %+v", gx, fx)
				}
			}
			// A kept timer may hold a stopped wake-up, so the timers are
			// left out of the comparison.
			gs, ws := *s, *fs
			gs.flow, gs.rtoTimer, gs.ext = 0, sim.Timer{}, nil
			ws.flow, ws.rtoTimer, ws.ext = 0, sim.Timer{}, nil
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("sender state:\nreopened    %+v\nconstructed %+v", gs, ws)
			}
			// The span list is compared by contents: the reopened one
			// keeps the capacity its recovery grew, the constructed one
			// has none until its first out-of-order segment.
			if len(r.ooo) != 0 || fr.ooo != nil {
				t.Fatalf("span lists: reopened %v, constructed %v, want both empty", r.ooo, fr.ooo)
			}
			gr, wr := *r, *fr
			gr.flow, gr.ackTimer, gr.ooo = 0, sim.Timer{}, nil
			wr.flow, wr.ackTimer, wr.ooo = 0, sim.Timer{}, nil
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("receiver state:\nreopened    %+v\nconstructed %+v", gr, wr)
			}

			// And it carries a transfer.
			done := false
			s.OnComplete = func(*Sender, sim.Time) { done = true }
			s.Start()
			if err := d.engine.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if !done || r.Received() != 5000 {
				t.Fatalf("reopened connection: done=%v, received %d of 5000", done, r.Received())
			}
		})
	}
}

// Every refusal: storage with an armed timer (the RTO of a transfer
// in flight, a delayed ACK pending, a DCTCP+ pacing delay running). A
// refusal leaves the storage as it was, and the retired storage is taken.
func TestReopenRefusals(t *testing.T) {
	d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	cfg := DefaultConfig(DCTCP)
	cfg.AckEvery = 2
	s, r := d.pair(0, 1<<20, cfg)
	peer := d.rcvHost.ID()

	s.Start() // segments in flight: the RTO timer is armed
	before, deadline := *s, s.rtoTimer.Deadline()
	if s.Reopen(d.senders[0], 50, peer, 1000, cfg) {
		t.Fatal("Reopen took a sender whose RTO timer is armed")
	}
	// A timer holds its callback, which DeepEqual never finds equal, so
	// the timer is compared by its deadline.
	after := *s
	before.rtoTimer, after.rtoTimer = sim.Timer{}, sim.Timer{}
	if !reflect.DeepEqual(after, before) || s.rtoTimer.Deadline() != deadline {
		t.Fatal("a refused Reopen changed the sender")
	}

	// One in-order segment of two: the delayed-ACK timer is armed.
	r.Deliver(&netsim.Packet{Flow: 0, Seq: 0, PayloadLen: 1460, Size: 1500})
	if !r.ackTimer.Armed() {
		t.Fatal("probe did not arm the delayed-ACK timer")
	}
	if r.Reopen(d.rcvHost, 50, d.senders[0].ID(), cfg) {
		t.Fatal("Reopen took a receiver whose delayed-ACK timer is armed")
	}
	if r.Received() != 1460 || r.flow != 0 {
		t.Fatal("a refused Reopen changed the receiver")
	}

	// A pacing delay running.
	plus := DefaultConfig(DCTCPPlus)
	p := NewSender(d.senders[1], 1, peer, 1<<20, plus)
	p.pacer().slowTime = time.Millisecond
	p.Start()
	if !p.pacer().timer.Armed() || p.rtoTimer.Armed() {
		t.Fatalf("probe state: pacer armed %v, RTO armed %v — want the pacer alone", p.pacer().timer.Armed(), p.rtoTimer.Armed())
	}
	if p.Reopen(d.senders[1], 51, peer, 1000, plus) {
		t.Fatal("Reopen took a sender whose pacer is armed")
	}

	// Retired: the transfer completed and its timers stopped.
	if err := d.engine.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() {
		t.Fatal("transfer incomplete")
	}
	d.senders[0].Unregister(0)
	if !s.Reopen(d.senders[0], 52, peer, 1000, cfg) {
		t.Fatal("Reopen refused retired storage")
	}
}

// A retired sender's RTO wake-up outlives Reopen: the timer sits inside
// the sender and open resets the connection around it, so the stopped
// wake-up still queued is the one the reopened connection's first arm
// revives, in place, and no second one is queued.
func TestReopenRevivesStoppedWakeUp(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	cfg := DefaultConfig(DCTCP)
	s, _ := d.pair(0, 20<<10, cfg)
	s.Start()
	if err := d.engine.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() || s.rtoTimer.Armed() {
		t.Fatalf("transfer completed %v, RTO armed %v: want a retired sender", s.Completed(), s.rtoTimer.Armed())
	}
	// The stopped RTO is the engine's one pending entry, a cancelled
	// wake-up short of its deadline.
	if got := d.engine.Pending(); got != 1 {
		t.Fatalf("%d entries pending, want the stopped RTO wake-up alone", got)
	}
	d.senders[0].Unregister(s.Flow())
	if !s.Reopen(d.senders[0], 7, d.rcvHost.ID(), 20<<10, cfg) {
		t.Fatal("Reopen refused a retired sender")
	}
	s.armRTO()
	if got := d.engine.Pending(); got != 1 || !s.rtoTimer.Armed() {
		t.Fatalf("after the first arm: %d entries pending, armed %v; want the old wake-up revived", got, s.rtoTimer.Armed())
	}
	want := d.engine.Now().Add(s.rtt.rto())
	if got := s.rtoTimer.Deadline(); got != want {
		t.Fatalf("deadline %v, want %v", got, want)
	}
}
