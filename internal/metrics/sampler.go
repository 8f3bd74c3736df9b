package metrics

import (
	"time"

	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
)

// seriesRef is one sampler-owned series registered for snapshot export.
type seriesRef struct {
	series *stats.Series
}

// Sampler turns gauges into time series over virtual time: every tick
// of the engine's clock it reads each tracked value and appends one
// point. Because ticks are ordinary engine events, the sampled instants
// are exact virtual times and the whole series is a pure function of
// the run — the same series for the same seed, on any worker count.
//
// A sampler does perturb the event stream (its ticks are events), so
// runs with and without a sampler are different runs; enable it
// per-configuration, not conditionally mid-experiment.
type Sampler struct {
	engine  *sim.Engine
	reg     *Registry
	every   time.Duration
	tracked []trackedSample
	tickFn  func(any)
	started bool
}

// trackedSample binds one value source to its output series.
type trackedSample struct {
	fn     func() float64
	series *stats.Series
}

// NewSampler creates a sampler ticking every interval on engine,
// exporting its series through reg's snapshots. Call Track for each
// value, then Start once.
func NewSampler(reg *Registry, engine *sim.Engine, every time.Duration) *Sampler {
	if every <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	s := &Sampler{engine: engine, reg: reg, every: every}
	s.tickFn = s.tick
	return s
}

// Track samples fn each tick into a new series with the given name and
// returns the series. Any registered GaugeFunc can be tracked by passing
// the same function.
func (s *Sampler) Track(name string, fn func() float64) *stats.Series {
	if s.started {
		panic("metrics: Track after Start")
	}
	series := stats.NewSeries(name)
	s.tracked = append(s.tracked, trackedSample{fn: fn, series: series})
	s.reg.series = append(s.reg.series, &seriesRef{series: series})
	return series
}

// Start schedules the first tick one interval from now. Starting twice
// is a no-op.
func (s *Sampler) Start() {
	if s.started {
		return
	}
	s.started = true
	s.engine.AfterArg(s.every, s.tickFn, nil)
}

// tick samples every tracked value and reschedules itself.
func (s *Sampler) tick(any) {
	t := s.engine.Now().Seconds()
	for i := range s.tracked {
		s.tracked[i].series.Add(t, s.tracked[i].fn())
	}
	s.engine.AfterArg(s.every, s.tickFn, nil)
}
