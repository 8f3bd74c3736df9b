//go:build unix

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's high-water resident set. It includes the Go
// runtime and the benchmark's own bookkeeping, not only simulator state.
//
// Linux keeps ru_maxrss across exec, so under `go run` it reads the go
// command's own peak (≈20 MB) for every workload; VmHWM belongs to this
// program's address space alone. Elsewhere ru_maxrss is what there is.
func peakRSSMB() float64 {
	if kb, ok := vmHWM(); ok {
		return kb / 1024
	}
	kb := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // ru_maxrss is in bytes there
	}
	return kb / 1024
}

// vmHWM reads the "VmHWM:  1234 kB" line of /proc/self/status.
func vmHWM() (kb float64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb, err == nil
		}
	}
	return 0, false
}
