package netsim

import (
	"fmt"

	"dtdctcp/internal/invariant"
)

// SharedBuffer is one switch-wide buffer pool shared by several output
// ports under dynamic-threshold allocation (Choudhury–Hahne): an arriving
// packet of size s is admitted at port i only while the pool has room
// (ΣQ + s ≤ B) and the port stays inside its dynamic allowance
//
//	Q_i + s ≤ T_i = α·(B − ΣQ).
//
// Small α behaves like a conservative static carve-up; large α approaches
// complete sharing, with the congested-ports fixed point T = αB/(1+αN)
// converging to an equal B/N split as α → ∞. With a single member port
// and α large enough that the allowance never binds, admission reduces
// exactly to the per-port tail-drop rule at buffer B — the uncontended
// limit the conformance grid pins verdict-for-verdict.
//
// Member ports run on one event wheel, so the pool counter needs no
// synchronization.
type SharedBuffer struct {
	total int     // B: pool capacity in bytes
	alpha float64 // dynamic-threshold α
	used  int     // ΣQ_i over member ports, in bytes
	ports []*Port
}

// NewSharedBuffer creates an empty pool of totalBytes with dynamic
// threshold α. Both must be positive.
func NewSharedBuffer(totalBytes int, alpha float64) (*SharedBuffer, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("netsim: shared buffer needs positive capacity, got %d", totalBytes)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("netsim: shared buffer needs positive alpha, got %g", alpha)
	}
	return &SharedBuffer{total: totalBytes, alpha: alpha}, nil
}

// Attach makes ports members of the pool. A port may belong to at most
// one pool, and must join before it has queued anything; attaching
// replaces the port's static buffer bound with the pool's dynamic
// allowance.
func (sb *SharedBuffer) Attach(ports ...*Port) error {
	for _, p := range ports {
		if p.shared() != nil {
			return fmt.Errorf("netsim: port to %s already belongs to a shared buffer", p.peer.Name())
		}
		if p.queueLen != 0 {
			return fmt.Errorf("netsim: port to %s has %d bytes queued; attach before traffic starts",
				p.peer.Name(), p.queueLen)
		}
		p.extension().shared = sb
		sb.ports = append(sb.ports, p)
	}
	return nil
}

// admit decides whether a packet of size bytes may enter a member port
// currently holding qlen bytes.
//
//dtlint:hotpath
func (sb *SharedBuffer) admit(qlen, size int) bool {
	free := sb.total - sb.used
	if size > free {
		return false
	}
	return float64(qlen+size) <= sb.alpha*float64(free)
}

// checkConservation asserts, under -tags invariants, that the pool
// counter equals the sum of member occupancies and never exceeds the
// capacity.
func (sb *SharedBuffer) checkConservation() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(sb.used >= 0, "netsim: negative shared-buffer occupancy %d", sb.used)
	invariant.Assert(sb.used <= sb.total,
		"netsim: shared-buffer occupancy %d exceeds capacity %d", sb.used, sb.total)
	sum := 0
	for _, p := range sb.ports {
		sum += p.queueLen
	}
	invariant.Assert(sum == sb.used,
		"netsim: shared-buffer drift: member queues hold %d bytes, pool counter says %d", sum, sb.used)
}
