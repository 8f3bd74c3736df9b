package chaos

import (
	"fmt"
	"sort"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// Tracer is the optional event sink for controller-originated chaos
// events (burst start/stop and setting changes). trace.Recorder
// satisfies it; port-level fault events (link state, drops) flow through
// the fault hooks of the port's own netsim.PortTracer instead, so nothing
// is reported twice.
type Tracer interface {
	// Burst records an injector switching on (start=true) or off.
	Burst(now sim.Time, start bool, name string)
	// Custom records a named scalar sample.
	Custom(now sim.Time, name string, value float64)
}

// Controller binds a Plan's link names to concrete ports and schedules
// the plan's events on the network's engine. All randomness (flap
// jitter, burst inter-arrivals) is drawn from the engine's RNG at event
// execution time, preserving the determinism contract.
type Controller struct {
	net    *netsim.Network
	engine *sim.Engine
	plan   *Plan
	links  map[string]*netsim.Port
	trace  Tracer
	// burstFlow is the flow ID stamped on injected packets; hosts have
	// no endpoint for it, so they evaporate one hop downstream.
	burstFlow netsim.FlowID
	// executed counts plan actions that have actually fired (each flap
	// transition and burst toggle counts individually).
	executed uint64
}

// BurstFlowID is the reserved flow carried by injected background
// packets. No endpoint registers it, so burst traffic occupies queues
// and then evaporates at the first host (or routeless switch) it hits.
const BurstFlowID netsim.FlowID = -1

// NewController creates a controller for plan over net's engine.
func NewController(net *netsim.Network, plan *Plan) *Controller {
	return &Controller{
		net:       net,
		engine:    net.Engine(),
		plan:      plan,
		links:     make(map[string]*netsim.Port),
		burstFlow: BurstFlowID,
	}
}

// BindLink names a port for the plan's events to target.
func (c *Controller) BindLink(name string, p *netsim.Port) {
	c.links[name] = p
}

// SetTrace attaches a sink for controller-originated events.
func (c *Controller) SetTrace(t Tracer) { c.trace = t }

// Apply validates the plan, resolves every link reference, and schedules
// all events. It must be called before the engine runs (or at least
// before the earliest event time).
func (c *Controller) Apply() error {
	if c.plan == nil {
		return nil
	}
	if err := c.plan.Validate(); err != nil {
		return err
	}
	// Resolve all links up front so a dangling name fails at Apply time,
	// not mid-run. Iterate events (slice order), not the map.
	for i := range c.plan.Events {
		ev := &c.plan.Events[i]
		if _, ok := c.links[ev.Link]; !ok {
			return fmt.Errorf("chaos: plan %q event %d: link %q not bound (have %v)",
				c.plan.Name, i, ev.Link, c.linkNames())
		}
	}
	for i := range c.plan.Events {
		c.schedule(&c.plan.Events[i])
	}
	return nil
}

// linkNames returns the bound link names sorted, for error messages.
func (c *Controller) linkNames() []string {
	names := make([]string, 0, len(c.links))
	for name := range c.links {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (c *Controller) schedule(ev *Event) {
	port := c.links[ev.Link]
	at := sim.FromDuration(ev.At.Duration)
	switch ev.Kind {
	case KindLinkDown:
		flush := ev.Flush
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetDown(true, flush)
		})
		if d := ev.DownFor.Duration; d > 0 {
			c.engine.Schedule(at.Add(d), func() {
				c.executed++
				port.SetDown(false, false)
			})
		}
	case KindLinkUp:
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetDown(false, false)
		})
	case KindFlap:
		f := &flapper{
			c:       c,
			port:    port,
			every:   ev.Every.Duration,
			downFor: ev.DownFor.Duration,
			jitter:  ev.Jitter,
			left:    ev.Count,
			flush:   ev.Flush,
		}
		f.downFn = f.down
		f.upFn = f.up
		c.engine.ScheduleArg(at, f.downFn, nil)
	case KindSetRate:
		rate := netsim.Rate(ev.RateBps)
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetRate(rate)
			c.custom("chaos-set-rate", float64(rate))
		})
	case KindScaleRate:
		factor := ev.Factor
		c.engine.Schedule(at, func() {
			c.executed++
			r := netsim.Rate(float64(port.Rate()) * factor)
			port.SetRate(r)
			c.custom("chaos-set-rate", float64(r))
		})
	case KindSetDelay:
		d := ev.Delay.Duration
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetDelay(d)
			c.custom("chaos-set-delay", d.Seconds())
		})
	case KindSetBuffer:
		b := ev.BufferBytes
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetBuffer(b)
			c.custom("chaos-set-buffer", float64(b))
		})
	case KindCorrupt:
		prob := ev.Prob
		c.engine.Schedule(at, func() {
			c.executed++
			port.SetCorruptProb(prob)
			c.custom("chaos-corrupt-prob", prob)
		})
		if d := ev.For.Duration; d > 0 {
			c.engine.Schedule(at.Add(d), func() {
				c.executed++
				port.SetCorruptProb(0)
				c.custom("chaos-corrupt-prob", 0)
			})
		}
	case KindBurst:
		c.scheduleBurst(ev, port, at)
	}
}

// Executed reports the number of plan actions that have fired so far
// (each flap transition and burst start/stop counts individually;
// individual burst packets do not).
func (c *Controller) Executed() uint64 { return c.executed }

func (c *Controller) custom(name string, v float64) {
	if c.trace != nil {
		c.trace.Custom(c.engine.Now(), name, v)
	}
}

// flapper drives one flap event's down/up cycles. Its callbacks are
// prestored func(any) values so rescheduling itself does not allocate
// closures in steady state.
type flapper struct {
	c       *Controller
	port    *netsim.Port
	every   time.Duration
	downFor time.Duration
	jitter  float64
	left    int
	flush   bool

	downFn func(any)
	upFn   func(any)
}

// jittered stretches or shrinks d by up to ±jitter, drawing from the
// engine RNG at call time so the draw order follows virtual time.
func (f *flapper) jittered(d time.Duration) time.Duration {
	if f.jitter == 0 {
		return d
	}
	u := f.c.engine.Rand().Float64()*2 - 1 // [-1, 1)
	j := time.Duration(float64(d) * (1 + f.jitter*u))
	if j < 0 {
		j = 0
	}
	return j
}

func (f *flapper) down(any) {
	f.c.executed++
	f.port.SetDown(true, f.flush)
	f.c.engine.AfterArg(f.jittered(f.downFor), f.upFn, nil)
}

func (f *flapper) up(any) {
	f.c.executed++
	f.port.SetDown(false, false)
	f.left--
	if f.left > 0 {
		f.c.engine.AfterArg(f.jittered(f.every-f.downFor), f.downFn, nil)
	}
}
