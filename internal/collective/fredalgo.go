package collective

import (
	"fmt"
	"slices"
	"sort"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

// switchesOf returns the level-k switches a group spans, in ascending
// order (level 0 being the L1 switches).
func switchesOf(f *topology.FredFabric, group []int, level int) []int {
	var out []int
	for _, npu := range group {
		sw := f.SwitchOf(npu, level)
		i := sort.SearchInts(out, sw)
		if i < len(out) && out[i] == sw {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = sw
	}
	return out
}

// lcaLevel returns the level of the lowest switch above every member
// and the given NPU (0 when they all share an L1 switch).
func lcaLevel(f *topology.FredFabric, npu int, group []int) int {
	top := 0
	for _, m := range group {
		top = max(top, f.LCALevel(npu, m))
	}
	return top
}

// treeLatency returns the cut-through latency of a pipelined tree
// through a level-top switch: top+1 hops up and as many down.
func treeLatency(f *topology.FredFabric, top int) float64 {
	return float64(2*(top+1)) * f.Config().LinkLatency
}

// groupByL1 splits a group of NPUs by leaf switch: it returns the
// involved leaves in ascending order and, aligned with them, each
// leaf's members in group order.
func groupByL1(f *topology.FredFabric, group []int) (l1s []int, members [][]int) {
	l1s = switchesOf(f, group, 0)
	members = make([][]int, len(l1s))
	for _, npu := range group {
		i := sort.SearchInts(l1s, f.L1Of(npu))
		members[i] = append(members[i], npu)
	}
	return l1s, members
}

// FredEndpointAllReduce compiles the hierarchical 2D ring algorithm
// used by Fred-A and Fred-C (Section 7.2, after BlueConnect): a
// reduce-scatter ring among the NPUs under each leaf switch, an
// all-reduce ring across leaves (one concurrent ring per local
// position), then an all-gather ring under each leaf. This keeps
// L1↔L2 traffic at 1/k of a flat ring when each leaf hosts k members.
// Groups that do not split evenly across leaves fall back to a flat
// bidirectional ring (the generality cost of endpoint hierarchy).
func FredEndpointAllReduce(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-endpoint-allreduce(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	l1s, byL1 := groupByL1(f, group)
	if len(l1s) == 1 {
		// Entire group under one leaf: a flat ring through the switch
		// runs at full NPU port bandwidth.
		return RingAllReduce(f, byL1[0], bytes, true)
	}
	k := len(byL1[0])
	uniform := true
	for _, members := range byL1 {
		if len(members) != k {
			uniform = false
			break
		}
	}
	if !uniform || k == 0 {
		return RingAllReduce(f, group, bytes, true)
	}
	if k == 1 {
		// One member per leaf: a single cross-leaf ring.
		return RingAllReduce(f, flatten(byL1), bytes, true)
	}
	// The three stages are chunked and pipelined (BlueConnect): in
	// steady state the intra-leaf reduce-scatter of chunk c+1, the
	// cross-leaf all-reduce of chunk c, and the intra-leaf all-gather
	// of chunk c−1 stream concurrently, so the schedule is one phase
	// holding every stage's edge transfers.
	var parts []Schedule
	// Stage 1: intra-leaf reduce-scatter (bytes → shard of bytes/k).
	for _, members := range byL1 {
		parts = append(parts, RingReduceScatter(f, members, bytes, true))
	}
	// Stage 2: cross-leaf all-reduce of each shard: k concurrent rings.
	for j := 0; j < k; j++ {
		ring := make([]int, 0, len(l1s))
		for _, members := range byL1 {
			ring = append(ring, members[j])
		}
		parts = append(parts, RingAllReduce(f, ring, bytes/float64(k), true))
	}
	// Stage 3: intra-leaf all-gather of the shards.
	for _, members := range byL1 {
		parts = append(parts, RingAllGather(f, members, bytes, true))
	}
	s.Phases = appendConcurrent(s.Phases, parts)
	return s
}

func flatten(byL1 [][]int) []int {
	var out []int
	for _, members := range byL1 {
		out = append(out, members...)
	}
	return out
}

// appendConcurrent zips several schedules phase-by-phase: phase i of
// every schedule runs concurrently (they involve disjoint NPUs).
func appendConcurrent(phases []Phase, parts []Schedule) []Phase {
	maxLen := 0
	for _, p := range parts {
		if len(p.Phases) > maxLen {
			maxLen = len(p.Phases)
		}
	}
	for i := 0; i < maxLen; i++ {
		var ph Phase
		for _, p := range parts {
			if i < len(p.Phases) {
				ph = append(ph, p.Phases[i]...)
			}
		}
		phases = append(phases, ph)
	}
	return phases
}

// inNetworkTreeLinks returns the links of the reduction/broadcast tree
// connecting a group through its switches up to their lowest common
// one: per-NPU up and down links in group order, then the up and down
// trunks of every involved switch, level by level in ascending switch
// order.
func inNetworkTreeLinks(f *topology.FredFabric, group []int, top int) []netsim.LinkID {
	var links []netsim.LinkID
	for _, npu := range group {
		links = append(links, f.UpLink(npu), f.DownLink(npu))
	}
	for k := 0; k < top; k++ {
		for _, sw := range switchesOf(f, group, k) {
			links = append(links, f.TrunkUp(k, sw), f.TrunkDown(k, sw))
		}
	}
	return links
}

// FredInNetworkAllReduce compiles an in-switch all-reduce (Fred-B/D):
// every NPU streams its D bytes up once; leaf switches reduce their
// local contributions, the root switch completes the reduction, and
// the result is broadcast down — per-NPU traffic D instead of the
// endpoint 2(N−1)/N·D (Section 2.2). The whole collective is one
// pipelined tree transfer.
func FredInNetworkAllReduce(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-allreduce(%d)", len(group))}
	if len(group) <= 1 || bytes <= 0 {
		return s
	}
	top := lcaLevel(f, group[0], group)
	s.Phases = []Phase{{Transfer{
		Links:           inNetworkTreeLinks(f, group, top),
		Bytes:           bytes,
		LatencyOverride: treeLatency(f, top),
	}}}
	return s
}

// FredInNetworkReduce compiles an in-switch reduce: contributions
// climb, reducing at each switch, to the switch on the root NPU's
// path, then descend that path to the root.
func FredInNetworkReduce(f *topology.FredFabric, group []int, root int, bytes float64) Schedule {
	s := Schedule{Name: "fred-innet-reduce"}
	if bytes <= 0 {
		return s
	}
	var links []netsim.LinkID
	for _, npu := range group {
		if npu != root {
			links = append(links, f.UpLink(npu))
		}
	}
	top := lcaLevel(f, root, group)
	for k := 0; k < top; k++ {
		for _, sw := range switchesOf(f, group, k) {
			if sw != f.SwitchOf(root, k) {
				links = append(links, f.TrunkUp(k, sw))
			}
		}
	}
	for k := top - 1; k >= 0; k-- {
		links = append(links, f.TrunkDown(k, f.SwitchOf(root, k)))
	}
	links = append(links, f.DownLink(root))
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: treeLatency(f, top)}}}
	return s
}

// FredInNetworkMulticast compiles an in-switch multicast: the source
// streams up once and the switches replicate downward.
func FredInNetworkMulticast(f *topology.FredFabric, src int, dsts []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-multicast(%d)", len(dsts))}
	if bytes <= 0 {
		return s
	}
	var links []netsim.LinkID
	top := 0
	for _, d := range dsts {
		if d == src {
			continue
		}
		links = append(links, f.DownLink(d))
		lca := f.LCALevel(src, d)
		top = max(top, lca)
		for k := lca - 1; k >= 0; k-- {
			if l := f.TrunkDown(k, f.SwitchOf(d, k)); !slices.Contains(links, l) {
				links = append(links, l)
			}
		}
	}
	if len(links) == 0 {
		return s
	}
	links = append(links, f.UpLink(src))
	for k := 0; k < top; k++ {
		links = append(links, f.TrunkUp(k, f.SwitchOf(src, k)))
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: treeLatency(f, top)}}}
	return s
}

// FredInNetworkReduceScatter compiles a reduce-scatter as serial
// in-switch reduces, one per member (Table 2).
func FredInNetworkReduceScatter(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-reducescatter(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	shard := bytes / float64(n)
	for _, root := range group {
		sub := FredInNetworkReduce(f, group, root, shard)
		s.Phases = append(s.Phases, sub.Phases...)
	}
	return s
}

// FredInNetworkAllGather compiles an all-gather as serial in-switch
// multicasts, one per member (Table 2).
func FredInNetworkAllGather(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-allgather(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	shard := bytes / float64(n)
	for _, src := range group {
		sub := FredInNetworkMulticast(f, src, group, shard)
		s.Phases = append(s.Phases, sub.Phases...)
	}
	return s
}
