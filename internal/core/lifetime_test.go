package core

import (
	"fmt"
	"testing"
	"time"

	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

// lifetimeOutcome is everything the receiver-lifetime oracle compares:
// the run's Outcome (events, drops at every tier, refused packets,
// timeouts and retransmissions) and what only the fabric counts.
type lifetimeOutcome struct {
	Outcome
	digest               uint64
	scheduled, cancelled uint64
	outOfOrder           uint64
}

// runLifetime runs cfg's leaf-spine fabric through flowgen and returns
// the outcome and the late duplicates answered from TIME_WAIT. With
// reference set it keeps receivers as they lived before they opened
// lazily: no listener, every receiver built and registered before the
// first event and never closed.
func runLifetime(t *testing.T, cfg FabricConfig, reference bool) (lifetimeOutcome, uint64) {
	t.Helper()
	r := newRun(cfg.Seed)
	nw := netsim.NewNetwork(r.engine)
	link := topo.LinkSpec{Rate: cfg.Rate, Delay: cfg.HopDelay, BufferBytes: cfg.BufferPkts * cfg.Protocol.PacketSize()}
	fab, err := topo.LeafSpine(nw, cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf,
		topo.Config{HostLink: link, FabricLink: link, Policy: cfg.Protocol.NewPolicy})
	if err != nil {
		t.Fatal(err)
	}
	w, err := flowgen.Start(fab.Hosts, flowgen.Config{
		CDF:         cfg.CDF,
		Load:        cfg.Load,
		CapacityBps: fab.BisectionBps(),
		Flows:       cfg.Flows,
		Matrix:      cfg.Matrix,
		TCP:         cfg.Protocol.TCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	var receivers []*tcp.Receiver
	if reference {
		for _, h := range fab.Hosts {
			h.Listen(nil)
		}
		for i := range w.Flows {
			f := &w.Flows[i]
			receivers = append(receivers, tcp.NewReceiver(fab.Hosts[f.Dst], netsim.FlowID(1+i), fab.Hosts[f.Src].ID(), cfg.Protocol.TCP))
		}
	}
	if err := r.engine.RunUntil(w.LastArrival().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}

	st := r.engine.Stats()
	out := lifetimeOutcome{
		Outcome:    r.collect(nw, nil, 0, w),
		digest:     w.Digest(),
		scheduled:  st.Scheduled,
		cancelled:  st.Cancelled,
		outOfOrder: w.TotalOutOfOrder(),
	}
	if reference {
		out.outOfOrder = 0
		for _, rcv := range receivers {
			out.outOfOrder += rcv.Stats().OutOfOrder
		}
	}
	late := w.LateDuplicates()
	w.Cleanup()
	return out, late
}

// TestReceiverLifetimeMatchesReference is the oracle for passive open and
// TIME_WAIT: a run whose receivers open at their first segment and close
// once everything is acknowledged is the run whose receivers are all
// built up front and never closed — same digest, same engine counts, same
// refused packets, reassembly, NIC drops, timeouts and retransmissions —
// for every traffic matrix, protocol and delayed-ACK factor.
// A small buffer at a high load makes the NICs drop, so late duplicates
// reach closed receivers.
//
// Each case also goes through RunFabric with the deprecated Shards field
// set to 1 and 2 wheels: every run is serial now, so each must give the
// lazily opened run's digest, outcome, reordering and late duplicates.
// Case names use TCP.Variant, which is dctcp for DCTCP, DT-DCTCP and HULL
// (go test suffixes the repeats #01 and #02), so every failure message
// names the protocol by Protocol.Name.
func TestReceiverLifetimeMatchesReference(t *testing.T) {
	cdf, err := flowgen.BuiltinCDF(flowgen.WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	protocols := []Protocol{
		DCTCP(20, 1.0/16),
		DTDCTCP(15, 25, 1.0/16),
		RenoECN(20),
		Reno(),
		DCTCPPlus(20, 1.0/16),
		HULL(20, 0.9, netsim.Gbps, 1.0/16),
	}
	var late uint64
	for _, matrix := range []flowgen.Matrix{flowgen.Random, flowgen.Permutation, flowgen.Incast} {
		for _, p := range protocols {
			for _, wheels := range []int{1, 2} {
				for _, ackEvery := range []int{1, 2} {
					cfg := FabricConfig{
						Protocol:     p,
						Topology:     "leafspine",
						Leaves:       2,
						Spines:       2,
						HostsPerLeaf: 2,
						Rate:         netsim.Gbps,
						HopDelay:     10 * time.Microsecond,
						BufferPkts:   40,
						CDF:          cdf,
						Load:         0.6,
						Flows:        60,
						Matrix:       matrix,
						Seed:         9,
						Shards:       wheels,
					}
					cfg.Protocol.TCP.AckEvery = ackEvery
					name := fmt.Sprintf("%s/%s/wheels%d/ack%d", matrix, p.TCP.Variant, wheels, ackEvery)
					t.Run(name, func(t *testing.T) {
						ref, _ := runLifetime(t, cfg, true)
						got, n := runLifetime(t, cfg, false)
						if got != ref {
							t.Fatalf("%s: receivers opened lazily: %+v\nreference:               %+v", p.Name, got, ref)
						}
						res, err := RunFabric(cfg)
						if err != nil {
							t.Fatalf("%s: %v", p.Name, err)
						}
						if res.Digest != fmt.Sprintf("%016x", got.digest) || res.Outcome != got.Outcome ||
							res.OutOfOrder != got.outOfOrder || res.LateDuplicates != n {
							t.Fatalf("%s, RunFabric on %d wheels: digest %s, outcome %+v, %d out of order, %d late; lazy run: %016x, %+v, %d, %d",
								p.Name, wheels, res.Digest, res.Outcome, res.OutOfOrder, res.LateDuplicates, got.digest, got.Outcome, got.outOfOrder, n)
						}
						t.Logf("%s: %d late duplicates answered from TIME_WAIT, %d refused packets", p.Name, n, got.DroppedNoFlow)
						late += n
					})
				}
			}
		}
	}
	if late == 0 {
		t.Fatal("no late duplicate reached a closed receiver: the TIME_WAIT path went untested")
	}
}
