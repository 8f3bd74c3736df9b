package fluid

import (
	"math"
	"testing"
)

// TestSolveEdgeCases drives the integrator through the degenerate corners
// of its parameter space: no flows, a single flow, RTTs two orders of
// magnitude off the paper's 100µs, and marking thresholds at or beyond
// the buffer limit. Valid-but-extreme configurations must stay finite and
// respect the state bounds; impossible ones must be rejected, not NaN.
func TestSolveEdgeCases(t *testing.T) {
	const C = 10e9 / 8 / 1500 // paper bottleneck in packets/sec
	base := func() Config {
		return Config{
			N:           10,
			C:           C,
			D:           100e-6,
			G:           1.0 / 16,
			Law:         SingleThreshold{K: 40},
			RTTRefQueue: 40,
			Duration:    0.05,
			BufferLimit: 600,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
		// wantMeanNear, when ≥ 0, pins the steady-state queue mean to
		// within tol packets.
		wantMeanNear float64
		tol          float64
	}{
		{
			name:         "zero flows rejected",
			mutate:       func(c *Config) { c.N = 0 },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "negative flows rejected",
			mutate:       func(c *Config) { c.N = -3 },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "nil marking law rejected",
			mutate:       func(c *Config) { c.Law = nil },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "zero duration rejected",
			mutate:       func(c *Config) { c.Duration = 0 },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "NaN duration rejected",
			mutate:       func(c *Config) { c.Duration = math.NaN() },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "infinite duration rejected",
			mutate:       func(c *Config) { c.Duration = math.Inf(1) },
			wantErr:      true,
			wantMeanNear: -1,
		},
		{
			name:         "single flow stays finite",
			mutate:       func(c *Config) { c.N = 1 },
			wantMeanNear: -1,
		},
		{
			name: "zero propagation delay",
			// R₀ degenerates to the queueing delay K/C alone.
			mutate:       func(c *Config) { c.D = 0 },
			wantMeanNear: -1,
		},
		{
			name: "extreme RTT 10ms",
			// 100× the paper's RTT: the loop is sluggish but bounded.
			mutate: func(c *Config) {
				c.D = 10e-3
				c.Duration = 0.5
			},
			wantMeanNear: -1,
		},
		{
			name: "extreme RTT 1us",
			// Far below the queueing delay; R₀ ≈ K/C dominates.
			mutate:       func(c *Config) { c.D = 1e-6 },
			wantMeanNear: -1,
		},
		{
			name: "K at buffer limit pins queue to cap",
			// Marking can only fire above K = limit, which the cap makes
			// unreachable: the queue must ride the buffer limit.
			mutate: func(c *Config) {
				c.Law = SingleThreshold{K: 600}
				c.RTTRefQueue = 600
				c.Duration = 0.2 // long enough for the tail to be fully pinned
			},
			wantMeanNear: 600,
			tol:          1,
		},
		{
			name: "K above buffer limit pins queue to cap",
			mutate: func(c *Config) {
				c.Law = SingleThreshold{K: 1000}
				c.RTTRefQueue = 1000
				c.Duration = 0.2
			},
			wantMeanNear: 600,
			tol:          1,
		},
		{
			name: "DT thresholds at buffer limit",
			mutate: func(c *Config) {
				c.Law = DoubleThreshold{K1: 600, K2: 580}
				c.RTTRefQueue = 600
			},
			// The falling-edge threshold keeps marking reachable, so the
			// queue must stay below the cap on average.
			wantMeanNear: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			res, err := Solve(cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want config rejection, got success")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Every sampled state must be finite and inside its bounds.
			for i := 0; i < res.Queue.Len(); i++ {
				q, w, a := res.Queue.At(i).V, res.Window.At(i).V, res.Alpha.At(i).V
				if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 || q > cfg.BufferLimit {
					t.Fatalf("sample %d: queue %g outside [0,%g]", i, q, cfg.BufferLimit)
				}
				if math.IsNaN(w) || math.IsInf(w, 0) || w < 1 {
					t.Fatalf("sample %d: window %g invalid", i, w)
				}
				if math.IsNaN(a) || a < 0 || a > 1 {
					t.Fatalf("sample %d: alpha %g outside [0,1]", i, a)
				}
			}
			if math.IsNaN(res.QueueMean) || math.IsNaN(res.QueueStdDev) || math.IsNaN(res.QueueAmplitude) {
				t.Fatalf("NaN summary: mean=%g std=%g amp=%g", res.QueueMean, res.QueueStdDev, res.QueueAmplitude)
			}
			if tc.wantMeanNear >= 0 && math.Abs(res.QueueMean-tc.wantMeanNear) > tc.tol {
				t.Fatalf("QueueMean = %g, want %g ± %g", res.QueueMean, tc.wantMeanNear, tc.tol)
			}
		})
	}
}

// A queue pinned at the buffer limit is flat to within numerical ripple.
// EstimatePeriod is deliberately scale-free (it normalizes by signal
// energy), so the flatness contract lives in the amplitude summaries that
// callers like internal/conform gate on — not in the period being zero.
func TestPinnedQueueIsFlat(t *testing.T) {
	res, err := Solve(Config{
		N:           10,
		C:           10e9 / 8 / 1500,
		D:           100e-6,
		G:           1.0 / 16,
		Law:         SingleThreshold{K: 1000},
		RTTRefQueue: 1000,
		Duration:    0.2,
		BufferLimit: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueStdDev > 1 {
		t.Fatalf("QueueStdDev = %g for a pinned queue, want ≈ 0", res.QueueStdDev)
	}
	if res.QueueAmplitude > 5 {
		t.Fatalf("QueueAmplitude = %g for a pinned queue, want ≈ 0", res.QueueAmplitude)
	}
}
