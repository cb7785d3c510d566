// Package det provides deterministic-iteration helpers.
//
// Go randomizes map iteration order on purpose; a simulator whose results
// must be reproducible from a seed cannot let that order reach simulator
// state, statistics, or output. The helpers here are the sanctioned idiom
// the bulklint `maprange` rule recognizes: instead of ranging over a map
// directly, range over its sorted keys. Sites where iteration order
// provably cannot escape (pure reductions, building another map) may
// instead carry a `//bulklint:ordered` waiver comment.
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns the keys of m in ascending order. The cost is one
// allocation and an O(n log n) sort; the maps on the simulator's commit
// paths are per-transaction footprints (tens of entries), so this is cheap
// relative to the simulation work around it.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //bulklint:ordered keys are sorted before they are returned
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
