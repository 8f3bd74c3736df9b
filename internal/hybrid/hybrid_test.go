package hybrid

import (
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

const pktSize = 1500

// testbed is a one-hop a→sw→b topology; the returned port is the
// switch's egress toward b — the bottleneck the coupler drives.
func testbed(t *testing.T, e *sim.Engine, rate netsim.Rate, bufferPkts int) (*netsim.Host, *netsim.Host, *netsim.Port) {
	t.Helper()
	n := netsim.NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: rate, Delay: 10 * time.Microsecond, Buffer: bufferPkts * pktSize}
	if err := n.Connect(a, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	port := sw.PortTo(b.ID())
	if port == nil {
		t.Fatal("no switch port toward b")
	}
	return a, b, port
}

// fluidCfg models background flows on a rate-bps bottleneck.
func fluidCfg(n float64, rate netsim.Rate) fluid.Config {
	return fluid.Config{
		N:           n,
		C:           float64(rate) / 8 / pktSize,
		D:           100 * 1e-6,
		G:           1.0 / 16,
		Law:         fluid.SingleThreshold{K: 40},
		RTTRefQueue: 40,
		BufferLimit: 600,
	}
}

// TestCouplerMatchesStandaloneStepperWithoutForeground pins the neutral
// case: with no foreground traffic the coupler's fluid trajectory is
// bit-identical to a standalone stepper at the same step size — the
// coupling machinery itself adds no perturbation.
func TestCouplerMatchesStandaloneStepperWithoutForeground(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	cfg := Config{
		Fluid:   fluidCfg(100, netsim.Gbps),
		Port:    port,
		PktSize: pktSize,
		Horizon: 20 * time.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	ref := fluidCfg(100, netsim.Gbps)
	ref.Step = c.interval.Seconds() / 8
	stp, err := fluid.NewStepper(ref)
	if err != nil {
		t.Fatal(err)
	}
	stp.Advance(c.Ticks() * 8)
	if got, want := c.Stepper().State(), stp.State(); got != want {
		t.Fatalf("coupled trajectory diverged from standalone: %+v != %+v", got, want)
	}
	if c.Ticks() == 0 {
		t.Fatal("coupler never ticked")
	}
}

// TestCouplerInstallsFluidLoadOnPort verifies phase 4: after a run whose
// background flows build a standing queue, the port carries the fluid
// queue as ambient bytes and the fluid departure rate as consumed rate.
func TestCouplerInstallsFluidLoadOnPort(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	c, err := New(Config{
		Fluid:   fluidCfg(100, netsim.Gbps),
		Port:    port,
		PktSize: pktSize,
		Horizon: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	st := c.Stepper().State()
	if st.Q <= 0 {
		t.Fatalf("background flows built no queue (q = %v); test is vacuous", st.Q)
	}
	if got, want := port.AmbientBytes(), int(st.Q*pktSize+0.5); got != want {
		t.Fatalf("port ambient bytes %d, want %d (fluid q %v pkts)", got, want, st.Q)
	}
	wantRate := netsim.Rate(c.Stepper().DepartureRate()*pktSize*8 + 0.5)
	if cap := port.Rate() - port.Rate()/1000; wantRate > cap {
		wantRate = cap // SetAmbient never lets ambient starve packets fully
	}
	if got := port.AmbientRate(); got != wantRate {
		t.Fatalf("port ambient rate %v, want %v", got, wantRate)
	}
	if port.AmbientRate() <= 0 {
		t.Fatal("backlogged background flows consume no bandwidth; test is vacuous")
	}
}

// TestCouplerForegroundOfferedLoadStarvesFluidDrain verifies phase 1: a
// foreground packet stream through the bottleneck lowers the fluid
// drain capacity below the link rate.
func TestCouplerForegroundOfferedLoadStarvesFluidDrain(t *testing.T) {
	e := sim.NewEngine(1)
	a, b, port := testbed(t, e, netsim.Gbps, 600)
	fcfg := fluidCfg(100, netsim.Gbps)
	c, err := New(Config{Fluid: fcfg, Port: port, PktSize: pktSize, Horizon: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)

	// Saturating foreground stream: one packet per serialization time.
	gap := netsim.Gbps.Serialization(pktSize)
	for i := 0; i < 10000; i++ {
		at := sim.TimeZero.Add(time.Duration(i) * gap)
		if at > sim.FromDuration(15*time.Millisecond) {
			break
		}
		e.ScheduleArg(at, func(any) {
			a.Send(&netsim.Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		}, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stepper().DrainCapacity(); got >= fcfg.C {
		t.Fatalf("fluid drain %v not starved below link capacity %v", got, fcfg.C)
	}
}

// TestCouplerStopsAtHorizon pins the tick count: ticks fire at every
// multiple of the interval in (0, horizon] and then stop, so Run
// terminates. The tick is R₀/8 = 72.5 µs, so 10 ms holds 137 of them.
func TestCouplerStopsAtHorizon(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	c, err := New(Config{
		Fluid:   fluidCfg(100, netsim.Gbps),
		Port:    port,
		PktSize: pktSize,
		Horizon: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(e)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.interval != 72500*time.Nanosecond {
		t.Fatalf("interval = %v, want R₀/8 = 72.5µs", c.interval)
	}
	if got, want := c.Ticks(), 137; got != want {
		t.Fatalf("ticks = %d, want %d", got, want)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := testbed(t, e, netsim.Gbps, 600)
	good := Config{Fluid: fluidCfg(100, netsim.Gbps), Port: port, PktSize: pktSize, Horizon: time.Millisecond}

	// want is a word the refusal must contain: the field at fault.
	bad := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Port = nil }, "port"},
		{func(c *Config) { c.Horizon = 0 }, "horizon"},
		{func(c *Config) { c.Horizon = -time.Second }, "horizon"},
		{func(c *Config) { c.PktSize = -1 }, "packet size"},
		{func(c *Config) { c.PktSize = 0 }, "packet size"},
		// R₀ = 1 ns puts the R₀/8 tick below the nanosecond grid.
		{func(c *Config) { c.Fluid.D, c.Fluid.RTTRefQueue = 1e-9, 0 }, "interval"},
		{func(c *Config) { c.Fluid.N = 0 }, "fluid: N"},
		{func(c *Config) { c.Fluid.Law = nil }, "fluid: Law"},
		// A tick longer than the run never fires: the R₀/8 tick
		// (72.5 µs here) against a 10 µs horizon.
		{func(c *Config) { c.Horizon = 10 * time.Microsecond }, "Interval 72.5µs exceeds Horizon"},
	}
	for i, tc := range bad {
		cfg := good
		tc.mutate(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not name %q", i, err, tc.want)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("New rejected valid config: %v", err)
	}
}
