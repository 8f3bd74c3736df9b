package workload

import (
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// ForegroundConfig parameterizes the hybrid co-simulation's foreground
// traffic: each host runs one persistent connection to the receiver and
// repeatedly transfers Bytes, pausing Gap between a transfer's last
// acknowledgement and the next transfer's start. Per-transfer completion
// times are recorded — the foreground FCTs the hybrid conformance grid
// compares against a fully packet-level run.
//
// All per-flow state lives on the sender host's engine: starts
// self-schedule there and completions fire there.
type ForegroundConfig struct {
	// Hosts are the foreground senders, one flow each.
	Hosts []*netsim.Host
	// Receiver absorbs every transfer.
	Receiver *netsim.Host
	// Bytes is the size of each transfer.
	Bytes int64
	// Gap is think time between a completion and the next transfer.
	Gap time.Duration
	// TCP configures all senders.
	TCP tcp.Config
	// BaseFlow is the first flow ID; one ID per host.
	BaseFlow netsim.FlowID
	// StartJitter staggers first transfers uniformly over the interval,
	// drawn from the construction engine's seeded stream.
	StartJitter time.Duration
	// Horizon stops the workload: no transfer starts at or after it.
	Horizon time.Duration
	// Warmup excludes early transfers: only completions of transfers
	// started at or after it are recorded.
	Warmup time.Duration
}

// Foreground runs repeated fixed-size transfers and records their FCTs.
type Foreground struct {
	flows []*fgFlow
}

type fgFlow struct {
	eng     *sim.Engine
	s       *tcp.Sender
	bytes   int64
	gap     time.Duration
	horizon sim.Time
	warmup  sim.Time

	started   sim.Time
	transfers int
	// fcts holds the recorded completion times, nfct of them, in chunks
	// of fctChunk filled in order: a growing list is never copied, and
	// FCTs concatenates the chunks once.
	fcts   []*[fctChunk]float64
	nfct   int
	nextFn func()
}

// fctChunk is how many completion times a flow records per allocation
// (4 KB).
const fctChunk = 512

// StartForeground creates the flows and schedules their first transfers;
// jitter draws come from engine's seeded stream.
func StartForeground(engine *sim.Engine, cfg ForegroundConfig) *Foreground {
	w := &Foreground{}
	for i, h := range cfg.Hosts {
		flow := cfg.BaseFlow + netsim.FlowID(i)
		s := tcp.NewSender(h, flow, cfg.Receiver.ID(), cfg.Bytes, cfg.TCP)
		tcp.NewReceiver(cfg.Receiver, flow, h.ID(), cfg.TCP)
		f := &fgFlow{
			eng:     h.Engine(),
			s:       s,
			bytes:   cfg.Bytes,
			gap:     cfg.Gap,
			horizon: sim.FromDuration(cfg.Horizon),
			warmup:  sim.FromDuration(cfg.Warmup),
		}
		f.nextFn = f.next
		s.OnComplete = f.complete
		start := engine.Now()
		if cfg.StartJitter > 0 {
			start = start.Add(time.Duration(engine.Rand().Int63n(int64(cfg.StartJitter))))
		}
		f.started = start
		s.StartAt(start)
		w.flows = append(w.flows, f)
	}
	return w
}

// complete runs on the sender's engine at each transfer completion.
func (f *fgFlow) complete(_ *tcp.Sender, now sim.Time) {
	f.transfers++
	if f.started >= f.warmup {
		i := f.nfct % fctChunk
		if i == 0 {
			f.fcts = append(f.fcts, new([fctChunk]float64))
		}
		f.fcts[len(f.fcts)-1][i] = (now - f.started).Seconds()
		f.nfct++
	}
	if next := now.Add(f.gap); next < f.horizon {
		f.eng.Schedule(next, f.nextFn)
	}
}

// next starts the flow's next transfer on its own engine.
func (f *fgFlow) next() {
	f.started = f.eng.Now()
	f.s.Extend(f.bytes)
}

// FCTs returns every recorded completion time in seconds, concatenated
// in flow order — a deterministic sequence.
func (w *Foreground) FCTs() []float64 {
	n := 0
	for _, f := range w.flows {
		n += f.nfct
	}
	out := make([]float64, 0, n)
	for _, f := range w.flows {
		for k, c := range f.fcts {
			out = append(out, c[:min(fctChunk, f.nfct-k*fctChunk)]...)
		}
	}
	return out
}

// Transfers counts completed transfers across all flows, warmup included.
func (w *Foreground) Transfers() int {
	total := 0
	for _, f := range w.flows {
		total += f.transfers
	}
	return total
}

// Losses sums RTO firings and retransmitted segments across flows.
func (w *Foreground) Losses() (timeouts, retransmissions uint64) {
	for _, f := range w.flows {
		st := f.s.Stats()
		timeouts += st.Timeouts
		retransmissions += st.Retransmissions
	}
	return timeouts, retransmissions
}
