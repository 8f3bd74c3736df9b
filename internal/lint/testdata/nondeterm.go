// Fixture for the nondeterm analyzer. This file lives under testdata so
// the go tool never builds it; lint_test.go parses, type-checks and
// analyzes it, comparing diagnostics against the `// want` comments.
package fixture

import (
	"math/rand"
	"time"
)

// jitter draws from an injected source — the sanctioned pattern.
func jitter(rng *rand.Rand) int64 {
	return rng.Int63n(1000) // ok: injected *rand.Rand
}

func wallClock() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until reads the wall clock"
}

func span(a, b time.Time) time.Duration {
	return b.Sub(a) // ok: arithmetic on instants the caller already holds
}

func globalSource() int {
	return rand.Intn(10) // want "process-global random source"
}

func shuffled(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "process-global random source"
}

func localSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "private random source" "private random source"
}

func sanctionedRoot(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) //dtlint:allow nondeterm: fixture's designated root source
}
