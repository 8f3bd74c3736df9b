// Package runner executes independent simulation points concurrently.
//
// A sweep — throughput vs. flow count, completion time vs. load — is a
// set of runs that differ only in configuration and seed. Each run owns a
// private sim.Engine, so runs share no mutable state and the simulator's
// determinism guarantee (a run is a pure function of its seed) survives
// parallel execution: results are collected by input index, which makes
// the output byte-identical for any worker count.
//
// The package deliberately knows nothing about simulations. Map is a
// generic index-parallel map with panic isolation and context
// cancellation; the core package layers sweep semantics on top.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a Map call.
type Options struct {
	// Workers is the number of concurrent goroutines; values < 1 mean
	// runtime.GOMAXPROCS(0). Workers is always clamped to the job count.
	Workers int
}

// PanicError wraps a panic recovered from one job so the caller sees
// which input exploded and where, instead of losing the whole process.
type PanicError struct {
	// Index is the job input index that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn for every index in [0, n) on a pool of workers and returns
// the results in input order. Each invocation must be independent: fn
// shares nothing with other invocations except what the caller closes
// over, and that must be read-only or internally synchronized.
//
// On the first error (or panic, wrapped as *PanicError) no new jobs are
// dispatched; jobs already running finish, and the error belonging to
// the lowest input index is returned alongside a nil slice. Context
// cancellation stops dispatch the same way and returns ctx.Err() if no
// job error outranks it.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	if n <= 0 {
		return []T{}, nil
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	s := &mapState[T]{ctx: ctx, ctxDone: ctx.Done(), fn: fn, results: make([]T, n)}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.work()
	}
	s.wg.Wait()

	if s.err != nil {
		return nil, s.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.results, nil
}

// mapState is everything one Map call shares between its workers, in a
// single allocation: the dispatch counter, the stop flag, the results,
// and the error of the lowest failing index seen so far.
type mapState[T any] struct {
	ctx     context.Context
	ctxDone <-chan struct{}
	fn      func(ctx context.Context, index int) (T, error)
	results []T

	next   atomic.Int64 // next index to dispatch
	failed atomic.Bool  // set on first error; stops dispatch
	wg     sync.WaitGroup

	mu     sync.Mutex
	err    error // error of the lowest failing index, errIdx
	errIdx int
}

// work dispatches indices to fn until they run out, a job fails, or the
// context is done.
func (s *mapState[T]) work() {
	defer s.wg.Done()
	for {
		if s.failed.Load() {
			return
		}
		select {
		case <-s.ctxDone:
			return
		default:
		}
		i := int(s.next.Add(1)) - 1
		if i >= len(s.results) {
			return
		}
		if err := s.run(i); err != nil {
			s.fail(i, err)
			return
		}
	}
}

// run calls fn for index i, turning a panic into a *PanicError.
func (s *mapState[T]) run(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &PanicError{Index: i, Value: r, Stack: stack}
		}
	}()
	s.results[i], err = s.fn(s.ctx, i)
	return err
}

// fail records job i's error if no lower index has failed, and stops
// further dispatch.
func (s *mapState[T]) fail(i int, err error) {
	s.mu.Lock()
	if s.err == nil || i < s.errIdx {
		s.err, s.errIdx = err, i
	}
	s.mu.Unlock()
	s.failed.Store(true)
}
