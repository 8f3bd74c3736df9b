package metrics

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile runs fn inside the profiles a command's -cpuprofile and
// -memprofile flags ask for: a CPU profile written to cpuPath covers fn,
// and once fn succeeds the heap is garbage-collected for an up-to-date
// picture and its profile written to heapPath. The heap profile records
// every allocation fn makes, not the default one sample per 512 KB, which
// leaves a quick run's profile with a sample or two. An empty path skips
// that profile. The result is
// fn's error, else the first error from writing either profile.
// Profiling is strictly opt-in and has no effect on simulation results
// (it samples the OS thread, not the virtual clock).
func Profile(cpuPath, heapPath string, fn func() error) (err error) {
	if heapPath != "" {
		defer setMemProfileRate(runtime.MemProfileRate)
		setMemProfileRate(1)
	}
	if cpuPath != "" {
		// perr, not err: a block-local err would hide the named result
		// from the deferred close.
		stop, perr := startCPUProfile(cpuPath)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if heapPath != "" {
		return writeHeapProfile(heapPath)
	}
	return nil
}

// setMemProfileRate sets the runtime's heap sampling rate, a
// process-wide dial.
func setMemProfileRate(rate int) {
	//dtlint:allow soloengine: Profile sets the rate before fn starts any engine and restores it after the last one returns; no handler reads or writes it
	runtime.MemProfileRate = rate
}

// startCPUProfile begins writing a CPU profile to path and returns the
// function that ends profiling and closes the file. A test swaps it to
// fail the close.
var startCPUProfile = func(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("metrics: start cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile garbage-collects and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: create heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("metrics: write heap profile: %w", err)
	}
	return f.Close()
}
