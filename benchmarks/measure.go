package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// timing is one measured repetition: what it cost the host, and what the
// simulator produced.
type timing struct {
	wall, cpu float64 // seconds
	allocMB   float64 // MemStats.TotalAlloc delta
	mallocs   float64
	gcCycles  float64
	gcPauseMs float64
	out       outcome
}

// measure runs one repetition. The collection before the clock starts
// gives every repetition the same heap to begin from, so a repetition
// pays for its own garbage and not its predecessor's.
func measure(fn func() (outcome, error)) (timing, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return timing{
		wall:      wall,
		cpu:       cpu,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		out:       out,
	}, err
}

// stat is a metric as the ledger reports it: the median of N values
// with its quartiles.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func newStat(unit string, xs ...float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so spreads computed here and by the
// driver agree. Fewer than two values have no spread: all three cut
// points are the value itself (0 for none).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// pct returns how much larger a is than base, in percent.
func pct(a, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (a - base) / base * 100
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
