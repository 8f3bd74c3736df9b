package fluid

import (
	"math"
	"strings"
	"testing"
)

func stepperConfig() Config {
	return Config{
		N:           40,
		C:           1e7 / 12, // 10 Gbps in 1500-byte packets
		D:           100e-6,
		G:           1.0 / 16,
		Law:         SingleThreshold{K: 40},
		RTTRefQueue: 40,
		Duration:    50e-3,
		BufferLimit: 600,
	}
}

// TestSolveIsStepperDriver replays Solve's sampling loop over a raw
// Stepper and requires exact float equality with Solve's output: Solve
// must be a thin driver, and the Stepper the single source of numerics.
func TestSolveIsStepperDriver(t *testing.T) {
	cfg := stepperConfig()
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stp, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := stp.StepSize()
	sampleEvery := 10 * h
	steps := int(cfg.Duration/h) + 1
	nextSample := 0.0
	sampleIdx := 0
	for step := 0; step < steps; step++ {
		t64 := float64(step) * h
		if t64 >= nextSample {
			nextSample += sampleEvery
			st := stp.State()
			if sampleIdx >= res.Queue.Len() {
				t.Fatalf("stepper produced more samples than Solve (%d)", res.Queue.Len())
			}
			pt := res.Queue.At(sampleIdx)
			if pt.T != t64 || pt.V != st.Q {
				t.Fatalf("sample %d: Solve (t=%v q=%v) != stepper (t=%v q=%v)",
					sampleIdx, pt.T, pt.V, t64, st.Q)
			}
			if w := res.Window.At(sampleIdx).V; w != st.W {
				t.Fatalf("sample %d: window %v != %v", sampleIdx, w, st.W)
			}
			if a := res.Alpha.At(sampleIdx).V; a != st.Alpha {
				t.Fatalf("sample %d: alpha %v != %v", sampleIdx, a, st.Alpha)
			}
			sampleIdx++
		}
		stp.Step()
	}
	if sampleIdx != res.Queue.Len() {
		t.Fatalf("sample count: stepper %d, Solve %d", sampleIdx, res.Queue.Len())
	}
}

// TestStepperResumable verifies that observing and chunking an
// integration does not perturb it: stepping 1-at-a-time with State()
// reads between steps lands on exactly the state of one Advance call.
func TestStepperResumable(t *testing.T) {
	cfg := stepperConfig()
	a, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5000
	a.Advance(steps)
	for i := 0; i < steps; i++ {
		_ = b.State() // interleaved observation must be side-effect free
		b.Step()
	}
	sa, sb := a.State(), b.State()
	if sa != sb {
		t.Fatalf("chunked run diverged: %+v != %+v", sa, sb)
	}
}

// TestStepperCouplingInputs exercises the hybrid hooks: ambient queue
// shifts the marking input and the RTT, and a reduced drain capacity
// slows the queue's drain.
func TestStepperCouplingInputs(t *testing.T) {
	cfg := stepperConfig()
	stp, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Ambient above the threshold forces marking even with an empty
	// fluid queue: α must rise from 0 once the feedback delay passes.
	stp.SetAmbientQueue(100) // K = 40
	stp.Advance(500)
	if st := stp.State(); st.Alpha <= 0 {
		t.Fatalf("ambient queue above K did not drive marking: α = %v", st.Alpha)
	}

	// Clamps: negative ambient → 0; drain capacity stays in [C/1000, C].
	stp.SetAmbientQueue(-5)
	if got := stp.extQ; got != 0 {
		t.Fatalf("negative ambient clamped to %v, want 0", got)
	}
	stp.SetAmbientQueue(math.NaN())
	if got := stp.extQ; got != 0 {
		t.Fatalf("NaN ambient clamped to %v, want 0", got)
	}
	stp.SetDrainCapacity(-1)
	if got := stp.DrainCapacity(); got != cfg.C/1000 {
		t.Fatalf("negative drain clamped to %v, want %v", got, cfg.C/1000)
	}
	stp.SetDrainCapacity(2 * cfg.C)
	if got := stp.DrainCapacity(); got != cfg.C {
		t.Fatalf("excess drain clamped to %v, want %v", got, cfg.C)
	}

	// A starved drain must leave the queue growing toward the buffer cap
	// faster than the full-capacity run.
	full, _ := NewStepper(cfg)
	starved, _ := NewStepper(cfg)
	starved.SetDrainCapacity(cfg.C / 100)
	full.Advance(2000)
	starved.Advance(2000)
	if starved.State().Q <= full.State().Q {
		t.Fatalf("starved drain q=%v not above full-capacity q=%v",
			starved.State().Q, full.State().Q)
	}

	// DepartureRate: backlogged → drain capacity; empty → arrival rate.
	if starved.State().Q > 0 && starved.DepartureRate() != starved.DrainCapacity() {
		t.Fatalf("backlogged departure %v != drain %v", starved.DepartureRate(), starved.DrainCapacity())
	}
	idle, _ := NewStepper(cfg)
	if got, want := idle.DepartureRate(), idle.ArrivalRate(); got != want {
		t.Fatalf("idle departure %v != arrival %v", got, want)
	}
}

// TestStepperBufferLimitSharesWithAmbient pins the shared-buffer rule:
// the fluid queue caps at BufferLimit minus the ambient contribution,
// never below zero.
func TestStepperBufferLimitSharesWithAmbient(t *testing.T) {
	cfg := stepperConfig()
	cfg.N = 400 // drive the queue into the cap
	cfg.BufferLimit = 100
	stp, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stp.SetAmbientQueue(30)
	stp.Advance(20000)
	if q := stp.State().Q; q > 70 {
		t.Fatalf("fluid queue %v exceeds BufferLimit−ambient = 70", q)
	}
	stp.SetAmbientQueue(200) // ambient alone exceeds the buffer
	stp.Step()
	if q := stp.State().Q; q != 0 {
		t.Fatalf("fluid queue %v not squeezed to 0 by oversized ambient", q)
	}
}

// TestNewStepperRejectsInvalid holds every refusal to an error that
// names the field at fault. Most rows crashed (makeslice: len out of
// range), integrated NaN or ran model time backwards before they were
// refused.
func TestNewStepperRejectsInvalid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { *c = Config{} }, "N must be positive"},
		{func(c *Config) { c.N = 0 }, "N must be positive"},
		{func(c *Config) { c.C = 0 }, "C must be positive"},
		{func(c *Config) { c.C = -1 }, "C must be positive"},
		{func(c *Config) { c.D = -1 }, "D must not be negative"},
		{func(c *Config) { c.Law = nil }, "Law is nil"},
		{func(c *Config) { c.N = nan }, "N = NaN"},
		{func(c *Config) { c.C = nan }, "C = NaN"},
		{func(c *Config) { c.D = nan }, "D = NaN"},
		{func(c *Config) { c.G = nan }, "G = NaN"},
		{func(c *Config) { c.Step = nan }, "Step = NaN"},
		{func(c *Config) { c.Step = inf }, "Step = +Inf"},
		{func(c *Config) { c.RTTRefQueue = nan }, "RTTRefQueue = NaN"},
		{func(c *Config) { c.BufferLimit = inf }, "BufferLimit = +Inf"},
		// R₀ = D + RTTRefQueue/C: zero, negative, overflowing.
		{func(c *Config) { c.D, c.RTTRefQueue = 0, 0 }, "R0 = D + RTTRefQueue/C = 0"},
		{func(c *Config) { c.RTTRefQueue = -1e6 }, "R0 = D + RTTRefQueue/C = -"},
		{func(c *Config) { c.C, c.RTTRefQueue = 1e-300, 1e300 }, "R0 = D + RTTRefQueue/C = +Inf"},
		// A step that needs more than 2²⁰ history entries per R₀.
		{func(c *Config) { c.Step = 1e-300 }, "Step = 1e-300"},
		{func(c *Config) { c.Step = c.R0() / (1<<20 + 1) }, "Step = "},
	}
	for i, tc := range bad {
		cfg := stepperConfig()
		tc.mutate(&cfg)
		_, err := NewStepper(cfg)
		switch {
		case err == nil:
			t.Errorf("case %d: NewStepper accepted invalid config %+v", i, cfg)
		case !strings.HasPrefix(err.Error(), "fluid: ") || !strings.Contains(err.Error(), tc.want):
			t.Errorf("case %d: error %q does not say %q", i, err, tc.want)
		}
	}

	good := []func(*Config){
		func(c *Config) { c.D = 0 }, // R₀ from the reference queue alone
		func(c *Config) { c.Step = c.R0() / (1 << 20) },
		func(c *Config) { c.Step = 1e6 },
		func(c *Config) { c.Step, c.BufferLimit = -1, -1 },
	}
	for i, mutate := range good {
		cfg := stepperConfig()
		mutate(&cfg)
		stp, err := NewStepper(cfg)
		if err != nil {
			t.Errorf("valid case %d refused: %v", i, err)
			continue
		}
		stp.Advance(100)
		if st := stp.State(); math.IsNaN(st.W+st.Alpha+st.Q) || st.T <= 0 {
			t.Errorf("valid case %d: state %+v after 100 steps", i, st)
		}
	}
}
