package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// regroupings are the domain→shard assignments the metamorphic tests
// move a run through. Deliveries between domains that share a shard skip
// the barrier mailbox, so which events take which sequence numbers on
// which engine depends on the grouping; results must not. Each rewrites
// the default (leafward) assignment in place.
var regroupings = []struct {
	name    string
	rewrite func(assign []int, shards int)
}{
	{"leafward", func([]int, int) {}},
	{"round-robin", func(assign []int, shards int) {
		for d := range assign {
			assign[d] = d % shards
		}
	}},
	{"one-shard", func(assign []int, _ int) { clear(assign) }},
	{"random", func(assign []int, shards int) {
		rng := rand.New(rand.NewSource(int64(len(assign))))
		for d := range assign {
			assign[d] = rng.Intn(shards)
		}
	}},
}

// eachRegrouping calls run once per regrouping and shard count in
// {2, 3, 4}, as a subtest, with the assignment hook installed.
func eachRegrouping(t *testing.T, run func(t *testing.T, group string, shards int)) {
	defer func() { testPermuteAssign = nil }()
	for _, g := range regroupings {
		for _, shards := range []int{2, 3, 4} {
			consulted := false
			testPermuteAssign = func(assign []int) {
				consulted = true
				g.rewrite(assign, shards)
			}
			t.Run(fmt.Sprintf("%s/shards=%d", g.name, shards), func(t *testing.T) { run(t, g.name, shards) })
			if !consulted {
				t.Fatal("vacuous: the runner never consulted the assignment hook")
			}
		}
	}
}
