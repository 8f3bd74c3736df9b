package tcp

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
)

// TestDrainedRunHoldsNoPackets finishes a finite workload with Engine.Run
// and requires every pooled packet back on the free list: a path that
// allocates a packet and neither sends nor frees it leaves a live count.
// The marked, shallow bottleneck drives each variant through its marking
// or loss paths (ECE echoes, CWR, fast retransmit, RTO) before it drains.
func TestDrainedRunHoldsNoPackets(t *testing.T) {
	const total = 2 << 20
	for _, v := range []Variant{DCTCP, RenoECN, Reno} {
		t.Run(v.String(), func(t *testing.T) {
			pol := aqm.NewSingleThresholdPackets(20, 1500)
			d := newDumbbell(t, 4, 1*netsim.Gbps, 25*time.Microsecond, 60, pol)
			senders := make([]*Sender, 4)
			for i := range senders {
				senders[i], _ = d.pair(i, total, DefaultConfig(v))
				senders[i].Start()
			}
			if err := d.engine.Run(); err != nil {
				t.Fatal(err)
			}
			var reactions uint64
			for i, s := range senders {
				if !s.Completed() {
					t.Fatalf("sender %d incomplete: acked %d of %d", i, s.Acked(), total)
				}
				st := s.Stats()
				reactions += st.ECNReductions + st.Retransmissions
			}
			if reactions == 0 {
				t.Fatal("no ECN reduction or retransmission: the run never left the clean path")
			}
			if live := d.net.LivePackets(); live != 0 {
				t.Fatalf("%d packets live after the run drained; some path allocates without sending or freeing", live)
			}
		})
	}
}
