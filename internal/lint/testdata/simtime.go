// Fixture for the simtime analyzer; see lint_test.go.
package fixture

import (
	"time"

	"dtdctcp/internal/sim"
)

// epoch shows the sanctioned way to name a magic instant.
const epoch sim.Time = 1_000_000 // ok: defining a named constant is the fix

func schedule(at sim.Time) {}

func rawLiterals() {
	schedule(1000)      // want "raw literal 1000 used as sim.Time"
	t := sim.Time(2500) // want "raw literal 2500 used as sim.Time"
	if t > 300 {        // want "raw literal 300 used as sim.Time"
		return
	}
}

func sanctioned() {
	schedule(sim.FromDuration(10 * time.Microsecond)) // ok: unit is explicit
	schedule(sim.TimeZero)                            // ok: named constant
	schedule(0)                                       // ok: the zero value is unambiguous
	schedule(epoch)                                   // ok: named constant
	schedule(sim.Time(12345)) //dtlint:allow simtime: fixture exercises the annotation path
}
