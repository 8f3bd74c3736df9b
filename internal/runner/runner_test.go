package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapReturnsResultsInInputOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		got, err := Map(context.Background(), 100, Options{Workers: workers},
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each job seeds its own PRNG from its index — the way sweeps seed
	// engines — so the result must be identical for any worker count.
	job := func(_ context.Context, i int) (uint64, error) {
		rng := rand.New(rand.NewSource(int64(i) + 1)) //dtlint:allow nondeterm: test-local stream, seeded per subtest
		var acc uint64
		for k := 0; k < 1000; k++ {
			acc = acc*31 + uint64(rng.Intn(1000))
		}
		return acc, nil
	}
	serial, err := Map(context.Background(), 32, Options{Workers: 1}, job)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), 32, Options{Workers: 8}, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: workers=1 → %d, workers=8 → %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{},
		func(context.Context, int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := Map(context.Background(), 50, Options{Workers: 4},
		func(_ context.Context, i int) (int, error) {
			if i == 7 || i == 23 {
				return 0, fmt.Errorf("job %d: %w", i, wantErr)
			}
			return i, nil
		})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// With 4 workers both failing jobs may run, but the reported error
	// must belong to the lowest failing index that actually ran.
	if !strings.HasPrefix(err.Error(), "job 7:") && !strings.HasPrefix(err.Error(), "job 23:") {
		t.Fatalf("err = %v, want one of the failing jobs", err)
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	var started atomic.Int64
	_, err := Map(context.Background(), 1000, Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			started.Add(1)
			if i < 2 {
				return 0, errors.New("early failure")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs ran despite early failure", n)
	}
}

func TestMapPanicIsolation(t *testing.T) {
	_, err := Map(context.Background(), 10, Options{Workers: 2},
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "kaboom" {
		t.Fatalf("PanicError = {Index: %d, Value: %v}", pe.Index, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "runner") {
		t.Fatal("PanicError.Stack missing")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, 10_000, Options{Workers: 2},
			func(ctx context.Context, i int) (int, error) {
				if ran.Add(1) == 10 {
					cancel()
				}
				return i, nil
			})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	// Workers <= 0 must still complete everything.
	got, err := Map(context.Background(), 17, Options{Workers: 0},
		func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range got {
		sum += v
	}
	if want := 17 * 18 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
