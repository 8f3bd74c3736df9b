//go:build !unix

package main

// Without getrusage the ledger still runs; cpu_s and peak_rss_mb read 0.
func cpuSeconds() float64 { return 0 }
func peakRSSMB() float64  { return 0 }
