// Fixture for the maporder analyzer; see lint_test.go.
package fixture

import "sort"

func leakyIteration(m map[int]string) []string {
	var out []string
	for _, v := range m { // want "map iteration order is randomized"
		out = append(out, v)
	}
	return out
}

func sortedIteration(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	for k := range m { // ok: canonical collect-then-sort idiom
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys { // ok: slice range
		out = append(out, m[k])
	}
	return out
}

func unsortedCollection(m map[int]string) []int {
	var keys []int
	for k := range m { // want "map iteration order is randomized"
		keys = append(keys, k)
	}
	return keys // never sorted: the order leak survives in the result
}

func provenInsensitive(m map[int]int) int {
	sum := 0
	//dtlint:allow maporder: addition is commutative
	for _, v := range m {
		sum += v
	}
	return sum
}
