package sim

import (
	"reflect"
	"testing"
	"time"
)

// These tests pin the four-field event key (at, schedAt, srcKey, seq)
// that InjectArg and ScheduleSrcArg stamp.

// TestInjectKeyedHeapPosition is the regression test for a heap-ordering
// bug: InjectArg once stamped its scheduling instant after the event had
// already been pushed (and sifted) under the engine clock, so a
// same-instant tie between an injected event and a native one resolved by
// the corrupted position instead of the (at, schedAt) key.
func TestInjectKeyedHeapPosition(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(100, func() {
		// At now=100, schedule a native event for t=200 (schedAt=100),
		// then inject one for the same instant, stamped schedAt=0. The
		// injected event must run first despite being enqueued last.
		e.Schedule(200, func() { order = append(order, "native") })
		e.InjectArg(200, func(any) { order = append(order, "injected") }, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "injected" || order[1] != "native" {
		t.Fatalf("tie resolved in wrong order: %v", order)
	}
}

// TestSourceKeyedTieOrder pins the topology-derived tie-break: events
// firing at the same (at, schedAt) run in srcKey order, with unkeyed
// events ahead of every keyed one, regardless of the order the scheduling
// calls were made in; two deliveries from one source run in the order
// they were scheduled.
func TestSourceKeyedTieOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	e.ScheduleSrcArg(300, 7, rec("d7 first"), nil)
	e.ScheduleSrcArg(300, 2, rec("d2 first"), nil)
	e.ScheduleSrcArg(300, 7, rec("d7 second"), nil)
	e.ScheduleSrcArg(300, 2, rec("d2 second"), nil)
	e.ScheduleArg(300, rec("local"), nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"local", "d2 first", "d2 second", "d7 first", "d7 second"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("tie order %v, want %v", order, want)
	}
}

func TestScheduleSrcArgRejectsNegativeKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative source key accepted")
		}
	}()
	NewEngine(1).ScheduleSrcArg(1, -1, func(any) {}, nil)
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
