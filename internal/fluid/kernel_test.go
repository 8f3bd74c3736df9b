package fluid

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// refStepper is the RK4 kernel as it stood before it was tightened:
// every derivative term calls its own rtt (twelve evaluations a step,
// each through math.Max), and the history ring is indexed by count
// modulo its length. It is the oracle Stepper.Step is held to bit for
// bit. Construction, the coupling setters and the state live in the
// embedded Stepper; the methods below shadow its kernel.
type refStepper struct {
	*Stepper
	count int
}

func mustStepper(t testing.TB, cfg Config) *Stepper {
	t.Helper()
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *refStepper) Step() {
	h := s.h
	qd := s.qdot(s.w, s.q)
	slot := s.count % len(s.histQ)
	s.histQ[slot] = s.q
	s.histQd[slot] = qd
	s.count++

	p := s.delayedP()
	alpha := s.alpha

	k1w, k1a, k1q := s.dW(s.w, s.q, p, alpha), s.dA(s.q, alpha, p), qd
	k2w := s.dW(s.w+h/2*k1w, s.q+h/2*k1q, p, alpha)
	k2a := s.dA(s.q+h/2*k1q, alpha+h/2*k1a, p)
	k2q := s.qdot(s.w+h/2*k1w, s.q+h/2*k1q)
	k3w := s.dW(s.w+h/2*k2w, s.q+h/2*k2q, p, alpha)
	k3a := s.dA(s.q+h/2*k2q, alpha+h/2*k2a, p)
	k3q := s.qdot(s.w+h/2*k2w, s.q+h/2*k2q)
	k4w := s.dW(s.w+h*k3w, s.q+h*k3q, p, alpha)
	k4a := s.dA(s.q+h*k3q, alpha+h*k3a, p)
	k4q := s.qdot(s.w+h*k3w, s.q+h*k3q)

	s.w += h / 6 * (k1w + 2*k2w + 2*k3w + k4w)
	s.alpha += h / 6 * (k1a + 2*k2a + 2*k3a + k4a)
	s.q += h / 6 * (k1q + 2*k2q + 2*k3q + k4q)

	if s.w < 1 {
		s.w = 1
	}
	if s.alpha < 0 {
		s.alpha = 0
	} else if s.alpha > 1 {
		s.alpha = 1
	}
	if s.q < 0 {
		s.q = 0
	}
	if lim := s.cfg.BufferLimit; lim > 0 {
		lim -= s.extQ
		if lim < 0 {
			lim = 0
		}
		if s.q > lim {
			s.q = lim
		}
	}
	s.step++
}

func (s *refStepper) delayedP() float64 {
	idx := float64(s.step) - s.lag
	if idx < 0 {
		return s.cfg.Law.P(s.extQ, 0)
	}
	i := int(idx)
	if i >= s.count-1 {
		i = s.count - 2
		if i < 0 {
			return s.cfg.Law.P(s.extQ, 0)
		}
	}
	frac := idx - float64(i)
	j := i % len(s.histQ)
	k := (i + 1) % len(s.histQ)
	dq := s.histQ[j]*(1-frac) + s.histQ[k]*frac
	dqd := s.histQd[j]*(1-frac) + s.histQd[k]*frac
	return s.cfg.Law.P(dq+s.extQ, dqd)
}

func (s *refStepper) rtt(q float64) float64 {
	if q < 0 {
		q = 0
	}
	q += s.extQ
	return math.Max(s.cfg.D+q/s.cfg.C, 1e-9)
}

func (s *refStepper) qdot(w, q float64) float64 {
	return s.cfg.N*w/s.rtt(q) - s.drainC
}

func (s *refStepper) dW(w, q, p, alpha float64) float64 {
	r := s.rtt(q)
	return 1/r - w*alpha*p/(2*r)
}

func (s *refStepper) dA(q, a, p float64) float64 {
	return s.cfg.G / s.rtt(q) * (p - a)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameBitsOrNaN lets two NaNs differ in payload. math.Max returns the
// canonical NaN (0x7ff8000000000001) where the compare-and-assign floor
// passes its operand through, so once an Inf−Inf has made a NaN of the
// hardware's own (0xfff8000000000000 on amd64) the two kernels carry
// different payloads from then on: N = 1e300 flows does it in one step.
// A NaN poked into the state is canonical on both sides and stays equal
// (the table holds that case to sameBits). No result reads a payload,
// and every runner's fuzz test fails on a NaN of any kind.
func sameBitsOrNaN(a, b float64) bool {
	return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelDiff describes the first difference between the oracle and the
// kernel — integration state, the derived State().Qdot, and every slot
// of both history rings — or returns "".
func kernelDiff(ref *refStepper, got *Stepper, same func(a, b float64) bool) string {
	pairs := []struct {
		name      string
		want, got float64
	}{
		{"W", ref.w, got.w},
		{"alpha", ref.alpha, got.alpha},
		{"q", ref.q, got.q},
		{"State().Qdot", ref.qdot(ref.w, ref.q), got.State().Qdot},
	}
	for _, p := range pairs {
		if !same(p.want, p.got) {
			return fmt.Sprintf("%s: oracle %v (%#x), kernel %v (%#x)",
				p.name, p.want, math.Float64bits(p.want), p.got, math.Float64bits(p.got))
		}
	}
	if ref.step != got.step || len(ref.histQ) != len(got.histQ) {
		return fmt.Sprintf("step/ring: oracle %d/%d, kernel %d/%d", ref.step, len(ref.histQ), got.step, len(got.histQ))
	}
	for i := range ref.histQ {
		if !same(ref.histQ[i], got.histQ[i]) || !same(ref.histQd[i], got.histQd[i]) {
			return fmt.Sprintf("ring slot %d: oracle (%v, %v), kernel (%v, %v)",
				i, ref.histQ[i], ref.histQd[i], got.histQ[i], got.histQd[i])
		}
	}
	return ""
}

// kernelCase is one oracle scenario. start, when not the zero State, is
// a warm start set through setState before the first step. drive, when
// set, runs before step i on the oracle's Stepper and on the kernel's
// alike: coupling inputs, or a value poked into the state.
type kernelCase struct {
	name  string
	cfg   Config
	start State
	drive func(i int, s *Stepper)
}

// setState moves a fresh stepper from its cold start (W = 1, α = 0,
// q = 0) to st's W, α and q; a W of zero or below keeps W = 1. The
// delayed marking before the first R₀ still reads an empty fluid queue.
func setState(s *Stepper, st State) {
	if st.W > 0 {
		s.w = st.W
	}
	s.alpha, s.q = st.Alpha, st.Q
}

// newKernelPair builds the oracle and the kernel for one configuration,
// both from the same start.
func newKernelPair(t testing.TB, cfg Config, start State) (*refStepper, *Stepper) {
	ref := &refStepper{Stepper: mustStepper(t, cfg)}
	got := mustStepper(t, cfg)
	setState(ref.Stepper, start)
	setState(got, start)
	return ref, got
}

// unit hashes x to [0, 1) (the murmur3 finalizer): coupling inputs that
// are a pure function of the step, so oracle and kernel are fed alike.
func unit(x uint64) float64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// couplerDrive imitates a coupler: every eighth step it installs a new
// ambient queue and drain capacity, values beyond both clamps included.
func couplerDrive(seed uint64, c, buf float64) func(int, *Stepper) {
	return func(i int, s *Stepper) {
		if i%8 != 0 {
			return
		}
		x := seed<<32 + uint64(i)
		s.SetAmbientQueue(unit(x)*1.5*buf - buf/4)
		s.SetDrainCapacity(unit(^x)*1.3*c - c/10)
	}
}

func kernelCases() []kernelCase {
	base := stepperConfig()
	with := func(mutate func(*Config)) Config {
		cfg := base
		mutate(&cfg)
		return cfg
	}
	return []kernelCase{
		{name: "single threshold", cfg: base},
		{name: "double threshold", cfg: with(func(c *Config) { c.Law = DoubleThreshold{K1: 30, K2: 50} })},
		// D = 0 starts on the 1 ns RTT floor (empty queue, no delay).
		{name: "zero propagation delay", cfg: with(func(c *Config) { c.D = 0 })},
		{name: "zero delay, double threshold, no buffer cap", cfg: with(func(c *Config) {
			c.D, c.BufferLimit, c.Law = 0, 0, DoubleThreshold{K1: 30, K2: 50}
		})},
		{
			name: "buffer limit shared with ambient queue",
			cfg:  with(func(c *Config) { c.N, c.BufferLimit = 400, 100 }),
			drive: func(i int, s *Stepper) {
				switch i {
				case 0:
					s.SetAmbientQueue(30)
				case 60_000:
					s.SetAmbientQueue(200) // ambient alone exceeds the buffer
				case 80_000:
					s.SetAmbientQueue(math.Inf(1))
				case 90_000:
					s.SetAmbientQueue(10)
				}
			},
		},
		// 200 steps of cold start (idx < 0) from a warm state, marked
		// through the ambient queue.
		{
			name:  "long cold start",
			cfg:   with(func(c *Config) { c.Step = c.R0() / 200 }),
			start: State{W: 12, Alpha: 0.3, Q: 80},
			drive: func(i int, s *Stepper) {
				if i == 0 {
					s.SetAmbientQueue(80)
				}
			},
		},
		// lag = 2/3: a three-slot ring, interpolating the newest pair.
		{name: "step above R0", cfg: with(func(c *Config) { c.Step = 1.5 * c.R0() })},
		// lag ≈ 1e-13 vanishes from float64(step) − lag after the first
		// step, so the lookup lands on the newest entry and is clamped.
		{name: "lag lost to rounding", cfg: with(func(c *Config) { c.Step = 1e13 * c.R0() })},
		{name: "coupling inputs every 8 steps", cfg: base, drive: couplerDrive(11, base.C, base.BufferLimit)},
		{
			name:  "coupling inputs, double threshold, D = 0",
			cfg:   with(func(c *Config) { c.D, c.Law = 0, DoubleThreshold{K1: 30, K2: 50} }),
			drive: couplerDrive(12, base.C, base.BufferLimit),
		},
		{
			name: "NaN forced into the state",
			cfg:  base,
			drive: func(i int, s *Stepper) {
				switch i {
				case 20_000:
					s.q = math.NaN()
				case 50_000: // NaN has spread to W and α by now; restart from finite values
					s.w, s.alpha, s.q = 5, 0.5, 60
				case 70_000:
					s.w = math.NaN()
				case 90_000:
					s.w, s.alpha, s.q = 5, math.NaN(), 60
				}
			},
		},
	}
}

// TestStepperKernelMatchesReference is the kernel's contract: over every
// branch of Step, delayedP and rtt it reproduces the reference kernel's
// (W, α, q), State().Qdot and both history rings bit for bit after
// every one of 10⁵ steps.
func TestStepperKernelMatchesReference(t *testing.T) {
	const steps = 100_000
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := newKernelPair(t, tc.cfg, tc.start)
			for i := 0; i < steps; i++ {
				if tc.drive != nil {
					tc.drive(i, ref.Stepper)
					tc.drive(i, got)
				}
				ref.Step()
				got.Step()
				if d := kernelDiff(ref, got, sameBits); d != "" {
					t.Fatalf("after step %d: %s", i, d)
				}
			}
		})
	}
}

// Fuzz input layout: one flag byte (bit 0 double threshold; bit 1 once
// selected a fixed RTT and is ignored), kernelFloats little-endian
// float64 words (words 8–10 are the warm start's W, α and q), then
// coupling ops of three bytes each.
const kernelFloats = 12

func encodeKernelInput(cfg Config, start State, ops []byte) []byte {
	var flags byte
	k1, k2 := 0.0, 0.0
	switch law := cfg.Law.(type) {
	case SingleThreshold:
		k1 = law.K
	case DoubleThreshold:
		flags |= 1
		k1, k2 = law.K1, law.K2
	}
	out := []byte{flags}
	for _, v := range [kernelFloats]float64{cfg.N, cfg.C, cfg.D, cfg.G, k1, k2,
		cfg.RTTRefQueue, cfg.Step, start.W, start.Alpha, start.Q, cfg.BufferLimit} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return append(out, ops...)
}

// decodeKernelInput is encodeKernelInput's inverse. A warm start that
// is not finite is not an input.
func decodeKernelInput(data []byte) (cfg Config, start State, ops []byte, ok bool) {
	if len(data) < 1+8*kernelFloats {
		return Config{}, State{}, nil, false
	}
	var v [kernelFloats]float64
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
	}
	cfg = Config{
		N: v[0], C: v[1], D: v[2], G: v[3],
		Law:         SingleThreshold{K: v[4]},
		RTTRefQueue: v[6], Step: v[7],
		BufferLimit: v[11],
	}
	if data[0]&1 != 0 {
		cfg.Law = DoubleThreshold{K1: v[4], K2: v[5]}
	}
	start = State{W: v[8], Alpha: v[9], Q: v[10]}
	if math.IsNaN(start.W+start.Alpha+start.Q) || math.IsInf(start.W+start.Alpha+start.Q, 0) {
		return Config{}, State{}, nil, false
	}
	return cfg, start, data[1+8*kernelFloats:], true
}

// FuzzStepperKernel holds the kernel to the oracle on configurations
// and coupling sequences decoded from bytes: whatever NewStepper accepts
// must integrate to the oracle's bits (NaN payloads aside, see
// sameBitsOrNaN), and whatever it refuses must be refused with an
// error, not a panic.
func FuzzStepperKernel(f *testing.F) {
	ops := []byte{32, 200, 7, 72, 100, 15, 0, 0, 3, 255, 255, 9}
	for i, tc := range kernelCases() {
		f.Add(encodeKernelInput(tc.cfg, tc.start, ops))
		if i == 1 {
			// The seed that once set the fixed-RTT bit keeps its place.
			in := encodeKernelInput(stepperConfig(), State{}, ops)
			in[0] |= 2
			f.Add(in)
		}
	}
	f.Add(encodeKernelInput(Config{N: 10, C: 1e5, Law: SingleThreshold{K: 1}}, State{}, nil))                    // R0 = 0
	f.Add(encodeKernelInput(Config{N: 10, C: 1e5, D: 1e-4, Step: 1e-300, Law: SingleThreshold{}}, State{}, nil)) // ring beyond the cap
	f.Add(encodeKernelInput(Config{N: math.NaN(), C: 1e5, D: 1e-4, Law: SingleThreshold{}}, State{}, nil))
	f.Add(encodeKernelInput(Config{N: 1e300, C: 1e5, D: 1e-4, Law: SingleThreshold{}}, State{W: 1e10, Alpha: 1}, ops)) // Inf−Inf: NaNs of two payloads

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, start, ops, ok := decodeKernelInput(data)
		if !ok {
			return
		}
		if _, err := NewStepper(cfg); err != nil {
			return
		}
		ref, got := newKernelPair(t, cfg, start)
		if len(got.histQ) > 1<<12 {
			return // bound the memory and the ring comparison, not the validity
		}
		run := func(n int) {
			for i := 0; i < n; i++ {
				ref.Step()
				got.Step()
				if d := kernelDiff(ref, got, sameBitsOrNaN); d != "" {
					t.Fatalf("config %+v, step %d: %s", cfg, got.step, d)
				}
			}
		}
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			// Ambient from −32 to 223 packets and drain from 0 to 1.275 C
			// reach both clamps of both setters.
			amb, drain := float64(ops[0])-32, cfg.C*float64(ops[1])/200
			ref.SetAmbientQueue(amb)
			got.SetAmbientQueue(amb)
			ref.SetDrainCapacity(drain)
			got.SetDrainCapacity(drain)
			run(1 + int(ops[2])%16)
		}
		run(256)
	})
}

var benchState State

// BenchmarkStepperStep is the go-test figure beside the ledger's
// fluid.step_ns rung: one RK4 step in the oscillating regime, for the
// kernel and for the reference it replaced.
func BenchmarkStepperStep(b *testing.B) {
	ref := &refStepper{Stepper: mustStepper(b, stepperConfig())}
	kernel := mustStepper(b, stepperConfig())
	for _, bc := range []struct {
		name string
		stp  *Stepper
		step func()
	}{
		{"kernel", kernel, kernel.Step},
		{"reference", ref.Stepper, ref.Step},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < 500; i++ {
				bc.step() // past the cold start
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.step()
			}
			benchState = bc.stp.State()
		})
	}
}
