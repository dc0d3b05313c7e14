package fred

import "encoding/binary"

// Coloring memoization. The conflict-graph coloring is the only search
// in the routing protocol — everything else in routeStage is linear
// bookkeeping — and identical sub-problems recur heavily: every Route
// call over the same flow pattern (per-iteration re-validation, the
// ablation's repeated trials) rebuilds the same adjacency at
// every recursion level. A coloring is a pure function of (adjacency,
// palette size, banned-middle set), and m is fixed per interconnect,
// so the memo key is the packed adjacency bits plus the banned set.
// Keying on the banned set's content — not on when it changed — makes
// invalidation exact: FailElement alters future bannedMiddles results,
// which routes lookups to fresh keys, while colorings whose stages are
// unaffected keep hitting their old entries.

// colorResult is one memoized coloring. colors is shared read-only by
// every Route call that hits the entry (routeStage only reads it); a
// nil colors with ok=false memoizes an uncolorable graph, so repeated
// conflict probes skip the exhaustive search too.
type colorResult struct {
	colors []int
	ok     bool
}

// colorKey packs (n, upper-triangle adjacency bits, banned marker +
// bits) into the interconnect's reused scratch buffer. A nil banned
// set is distinguished from an all-healthy one because colorGraph's
// symmetry-breaking pruning is only enabled when banned is nil.
func (ic *Interconnect) colorKey(adj [][]bool, banned []bool) []byte {
	n := len(adj)
	buf := binary.AppendUvarint(ic.colorKeyBuf[:0], uint64(n))
	var acc byte
	nbits := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adj[i][j] {
				acc |= 1 << uint(nbits)
			}
			if nbits++; nbits == 8 {
				buf = append(buf, acc)
				acc, nbits = 0, 0
			}
		}
	}
	if nbits > 0 {
		buf = append(buf, acc)
		acc, nbits = 0, 0
	}
	if banned == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, b := range banned {
			if b {
				acc |= 1 << uint(nbits)
			}
			if nbits++; nbits == 8 {
				buf = append(buf, acc)
				acc, nbits = 0, 0
			}
		}
		if nbits > 0 {
			buf = append(buf, acc)
		}
	}
	ic.colorKeyBuf = buf
	return buf
}

// colorCached returns the memoized coloring for the conflict graph,
// running the exact backtracking search on a miss. The cached slice is
// bit-identical to a fresh colorGraph result by determinism of the
// search, so memoized and unmemoized routings configure identical
// plans.
func (ic *Interconnect) colorCached(adj [][]bool, banned []bool) ([]int, bool) {
	key := ic.colorKey(adj, banned)
	if r, hit := ic.colorMemo[string(key)]; hit {
		return r.colors, r.ok
	}
	colors, ok := colorGraph(adj, ic.m, banned)
	if ic.colorMemo == nil {
		ic.colorMemo = make(map[string]colorResult)
	}
	ic.colorMemo[string(key)] = colorResult{colors: colors, ok: ok}
	return colors, ok
}
