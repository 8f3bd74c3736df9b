package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Built-in profiles are timed for the standard chaos dumbbell used by
// `dtsim chaos` and the core chaos tests: 10 Gbps bottleneck, 100 µs RTT,
// 250×1500 B buffer, 10 ms warmup + 40 ms measured, with the fault
// landing around t = 25 ms so there is steady state on both sides of it.
// Event times are absolute virtual times (warmup included). All target
// the link name "bottleneck".

// profileBuilders maps profile name → constructor. Constructors return a
// fresh Plan each call so callers can mutate their copy freely.
var profileBuilders = map[string]func() *Plan{
	"blackout": func() *Plan {
		return &Plan{
			Name:        "blackout",
			Description: "bottleneck dies for 2 ms in drain mode: queued packets survive, in-flight and arrivals are lost",
			Events: []Event{
				{At: D(25 * time.Millisecond), Kind: KindLinkDown, Link: "bottleneck", DownFor: D(2 * time.Millisecond)},
			},
		}
	},
	"flappy": func() *Plan {
		return &Plan{
			Name:        "flappy",
			Description: "five 400 µs outages 2 ms apart with 20% jitter, flushing the queue each time",
			Events: []Event{
				{At: D(22 * time.Millisecond), Kind: KindFlap, Link: "bottleneck",
					Every: D(2 * time.Millisecond), DownFor: D(400 * time.Microsecond),
					Count: 5, Jitter: 0.2, Flush: true},
			},
		}
	},
	"degrade": func() *Plan {
		return &Plan{
			Name:        "degrade",
			Description: "bottleneck capacity drops to 40% for 10 ms, then renegotiates back",
			Events: []Event{
				{At: D(25 * time.Millisecond), Kind: KindScaleRate, Link: "bottleneck", Factor: 0.4},
				{At: D(35 * time.Millisecond), Kind: KindScaleRate, Link: "bottleneck", Factor: 2.5},
			},
		}
	},
	"squeeze": func() *Plan {
		return &Plan{
			Name:        "squeeze",
			Description: "bottleneck buffer shrinks 250 → 40 packets for 10 ms (newest queued packets dropped), then grows back",
			Events: []Event{
				{At: D(25 * time.Millisecond), Kind: KindSetBuffer, Link: "bottleneck", BufferBytes: 40 * 1500},
				{At: D(35 * time.Millisecond), Kind: KindSetBuffer, Link: "bottleneck", BufferBytes: 250 * 1500},
			},
		}
	},
	"burst": func() *Plan {
		return &Plan{
			Name:        "burst",
			Description: "5 ms Poisson background burst at half line rate competes for the bottleneck queue",
			Events: []Event{
				{At: D(25 * time.Millisecond), Kind: KindBurst, Link: "bottleneck",
					RateBps: 5_000_000_000, For: D(5 * time.Millisecond), PacketBytes: 1500},
			},
		}
	},
	"lossy": func() *Plan {
		return &Plan{
			Name:        "lossy",
			Description: "0.5% post-serialization corruption for 10 ms: loss the marking law never sees",
			Events: []Event{
				{At: D(25 * time.Millisecond), Kind: KindCorrupt, Link: "bottleneck",
					Prob: 0.005, For: D(10 * time.Millisecond)},
			},
		}
	},
}

// Profiles lists the built-in profile names in sorted order.
func Profiles() []string {
	names := make([]string, 0, len(profileBuilders))
	for name := range profileBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Profile returns a fresh copy of a built-in plan by name.
func Profile(name string) (*Plan, error) {
	b, ok := profileBuilders[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown profile %q (have %v)", name, Profiles())
	}
	return b(), nil
}
