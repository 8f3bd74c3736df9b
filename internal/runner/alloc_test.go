//go:build !race

package runner

import (
	"context"
	"testing"
)

// TestMapAllocs pins Map's own cost: the results slice, one shared state
// and one goroutine start per worker, whatever the job count. The file
// is excluded from -race builds, whose runtime instruments allocations.
func TestMapAllocs(t *testing.T) {
	job := func(_ context.Context, i int) (int, error) { return i, nil }
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Map(context.Background(), 12, Options{Workers: 2}, job); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("Map of 12 empty jobs on 2 workers: %.1f allocations, want at most 4", avg)
	}
}
