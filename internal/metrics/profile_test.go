package metrics

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// burn spends a little CPU so a profile has something to record.
func burn() error {
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	return nil
}

// nonEmpty fails the test unless path holds a non-empty file.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatalf("profile %s is empty", path)
	}
}

func TestCPUProfileWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := Profile(path, "", burn); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, path)
	// A second profile must not collide with the finished one.
	if err := Profile(filepath.Join(t.TempDir(), "cpu2.pprof"), "", burn); err != nil {
		t.Fatal(err)
	}
}

// heapSink keeps allocateSmall's blocks reachable until the profile is
// written.
var heapSink [][]byte

// allocateSmall makes ten 64-byte allocations, 640 bytes in all: at the
// default sampling rate of one sample per 512 KB it would appear in a
// heap profile about once in 800 runs.
//
//go:noinline
func allocateSmall() error {
	for i := 0; i < 10; i++ {
		heapSink = append(heapSink, make([]byte, 64))
	}
	return nil
}

// TestHeapProfileRecordsEveryAllocation: the heap profile names a
// function whose few hundred bytes a sampled profile would miss.
func TestHeapProfileRecordsEveryAllocation(t *testing.T) {
	rate := runtime.MemProfileRate
	path := filepath.Join(t.TempDir(), "heap.pprof")
	if err := Profile("", path, allocateSmall); err != nil {
		t.Fatal(err)
	}
	heapSink = nil
	if runtime.MemProfileRate != rate {
		t.Fatalf("MemProfileRate left at %d, want %d restored", runtime.MemProfileRate, rate)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("allocateSmall")) {
		t.Fatal("heap profile does not name allocateSmall: allocations are sampled, not recorded")
	}
}

func TestHeapProfileWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.pprof")
	if err := Profile("", path, burn); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, path)
	// A failed run is the error and leaves no heap profile behind.
	failed := errors.New("run failed")
	skipped := filepath.Join(t.TempDir(), "skipped.pprof")
	if err := Profile("", skipped, func() error { return failed }); !errors.Is(err, failed) {
		t.Fatalf("Profile = %v, want the run's error", err)
	}
	if _, err := os.Stat(skipped); !os.IsNotExist(err) {
		t.Fatalf("heap profile written after a failed run: %v", err)
	}
}

func TestProfileErrorsOnBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "p")
	ran := false
	if err := Profile(bad, "", func() error { ran = true; return nil }); err == nil {
		t.Fatal("want error for unwritable CPU profile path")
	}
	if ran {
		t.Fatal("run went ahead without its CPU profile")
	}
	if err := Profile("", bad, burn); err == nil {
		t.Fatal("want error for unwritable heap profile path")
	}
}

// TestCPUProfileCloseErrorFails: a CPU profile that fails to close is the
// run's error, not a silent exit 0, unless the run failed first; a run
// that succeeds writes both profiles.
func TestCPUProfileCloseErrorFails(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	closeFailed, runFailed := errors.New("close failed"), errors.New("run failed")
	orig := startCPUProfile
	startCPUProfile = func(string) (func() error, error) { return func() error { return closeFailed }, nil }
	errClose := Profile(cpu, "", burn)
	errRun := Profile(cpu, "", func() error { return runFailed })
	startCPUProfile = orig
	if !errors.Is(errClose, closeFailed) {
		t.Fatalf("Profile = %v, want the close error", errClose)
	}
	if !errors.Is(errRun, runFailed) {
		t.Fatalf("Profile = %v, want the run's error before the close error", errRun)
	}

	if err := Profile(cpu, heap, burn); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, heap)
}
