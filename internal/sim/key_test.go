package sim

import (
	"testing"
	"time"
)

// These tests pin the five-field event key (at, schedAt, srcKey, srcSeq,
// seq) that InjectArg and ScheduleSrcArg stamp.

// TestInjectKeyedHeapPosition is the regression test for a heap-ordering
// bug: InjectArg once stamped the explicit scheduling instant after the
// event had already been pushed (and sifted) under the engine clock, so a
// same-instant tie between an injected delivery and a native event
// resolved by the corrupted position instead of the (at, schedAt) key.
func TestInjectKeyedHeapPosition(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(100, func() {
		// At now=100, schedule a native event for t=200 (schedAt=100),
		// then inject one for the same instant with an earlier schedAt.
		// The injected event must run first despite being enqueued last.
		e.Schedule(200, func() { order = append(order, "native") })
		e.InjectArg(200, 50, func(any) { order = append(order, "injected") }, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "injected" || order[1] != "native" {
		t.Fatalf("tie resolved in wrong order: %v", order)
	}
}

// TestSourceKeyedTieOrder pins the topology-derived tie-break: events
// firing at the same (at, schedAt) run in (srcKey, srcSeq) order, with
// unkeyed events ahead of every keyed one, regardless of the order the
// scheduling calls were made in.
func TestSourceKeyedTieOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	e.ScheduleSrcArg(300, 7, 0, rec("d7s0"), nil)
	e.ScheduleSrcArg(300, 2, 1, rec("d2s1"), nil)
	e.ScheduleSrcArg(300, 2, 0, rec("d2s0"), nil)
	e.ScheduleArg(300, rec("local"), nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"local", "d2s0", "d2s1", "d7s0"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order %v, want %v", order, want)
		}
	}
}

func TestScheduleSrcArgRejectsNegativeKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative source key accepted")
		}
	}()
	NewEngine(1).ScheduleSrcArg(1, -1, 0, func(any) {}, nil)
}

// TestEngineRunFor pins the serial RunFor horizon semantics in-package.
func TestEngineRunFor(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(FromDuration(time.Microsecond/2), func() { ran = true })
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event inside the window did not run")
	}
	if want := FromDuration(time.Microsecond); e.Now() != want {
		t.Fatalf("clock at %v, want %v", e.Now(), want)
	}
}

// TestInjectValidation pins the inject-key invariant: an event may never
// carry a scheduling instant after its firing instant.
func TestInjectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InjectArg with schedAt after at did not panic")
		}
	}()
	NewEngine(1).InjectArg(5, 10, func(any) {}, nil)
}
