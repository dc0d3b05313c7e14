package collective

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// newTree builds a 64-NPU, 3-level fabric: 4 NPUs per leaf, 4 leaves
// per mid switch, 4 mids under the root.
func newTree(inNetwork bool) (*netsim.Network, *topology.FredFabric) {
	net := netsim.New(sim.NewScheduler())
	return net, topology.NewFredFabric(net, topology.FredConfig{
		NPUs:        64,
		FanIn:       []int{4, 4, 4},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   inNetwork,
	})
}

func TestFredTreeInNetworkAllReduceLeafLocal(t *testing.T) {
	// A leaf-local group runs at the full NPU port bandwidth.
	net, tr := newTree(true)
	c := NewComm(tr)
	got := RunToCompletion(net, c.AllReduce([]int{0, 1, 2, 3}, gb))
	within(t, "leaf-local tree all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeInNetworkAllReduceGlobal(t *testing.T) {
	// All 64 NPUs: the NPU links (3 TB/s carrying D each) bound the
	// pipelined tree.
	net, tr := newTree(true)
	c := NewComm(tr)
	group := make([]int, 64)
	for i := range group {
		group[i] = i
	}
	got := RunToCompletion(net, c.AllReduce(group, gb))
	within(t, "global tree all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeReduceScatterAllGather(t *testing.T) {
	net, tr := newTree(true)
	c := NewComm(tr)
	group := []int{0, 1, 4, 5, 16, 17}
	rs := c.ReduceScatter(group, gb)
	ag := c.AllGather(group, gb)
	if rs.Empty() || ag.Empty() {
		t.Fatal("empty schedules")
	}
	if len(rs.Phases) != len(group) || len(ag.Phases) != len(group) {
		t.Fatalf("phases: RS %d, AG %d, want %d serial steps each", len(rs.Phases), len(ag.Phases), len(group))
	}
	d1 := RunToCompletion(net, rs)
	if d1 <= 0 {
		t.Fatal("RS did not run")
	}
	net2, tr2 := newTree(true)
	d2 := RunToCompletion(net2, NewComm(tr2).AllGather(group, gb))
	if d2 <= 0 {
		t.Fatal("AG did not run")
	}
}

func TestFredTreeEndpointFallsBackToRings(t *testing.T) {
	net, tr := newTree(false)
	c := NewComm(tr)
	group := []int{0, 1, 2, 3}
	// A group under one leaf runs the hierarchical endpoint algorithm's
	// flat ring: 2(3/4)·D per NPU at 3 TB/s.
	got := RunToCompletion(net, c.AllReduce(group, gb))
	within(t, "tree endpoint ring", got, 1.5*gb/3e12, 0.05)
}

func TestFredTreeMulticastInNetworkVsEndpoint(t *testing.T) {
	netIn, trIn := newTree(true)
	tIn := RunToCompletion(netIn, NewComm(trIn).Multicast(0, []int{1, 2, 3}, gb))
	within(t, "tree in-network multicast", tIn, gb/3e12, 0.02)

	netEp, trEp := newTree(false)
	tEp := RunToCompletion(netEp, NewComm(trEp).Multicast(0, []int{1, 2, 3}, gb))
	within(t, "tree endpoint multicast (3 unicasts)", tEp, 3*gb/3e12, 0.02)
}

func TestFredTreeCrossLevelCollective(t *testing.T) {
	// Members spread across mid-switch subtrees exercise level-2 links.
	net, tr := newTree(true)
	c := NewComm(tr)
	group := []int{0, 16, 32, 48} // one NPU per mid-switch subtree
	got := RunToCompletion(net, c.AllReduce(group, gb))
	// Single flow: bound by the NPU links (3 TB/s).
	within(t, "cross-level all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeConcurrentGroupsShareTrunks(t *testing.T) {
	// Sixteen concurrent cross-subtree all-reduces (one per leaf
	// position) share the 12 TB/s leaf trunks: each leaf trunk carries
	// 4 flows (its 4 NPUs in distinct groups) — still below 12 TB/s at
	// D each, so all finish at the NPU-link bound.
	net, tr := newTree(true)
	c := NewComm(tr)
	var scheds []Schedule
	for r := 0; r < 16; r++ {
		group := []int{r, 16 + r, 32 + r, 48 + r}
		scheds = append(scheds, c.AllReduce(group, gb))
	}
	times := RunConcurrently(net, scheds)
	for i, tm := range times {
		within(t, "concurrent tree group", tm, gb/3e12, 0.05)
		_ = i
	}
}

// TestFredInNetworkTreesMatchRoutes is the routing oracle of the
// in-network builders: on 2- and 3-level fabrics, the single transfer
// of an in-network all-reduce, reduce or multicast uses exactly the
// union of the unicast routes between its endpoints, each link once,
// and its latency is the longest of those routes'.
func TestFredInNetworkTreesMatchRoutes(t *testing.T) {
	_, three := newTree(true)
	ragged := topology.NewFredFabric(netsim.New(sim.NewScheduler()), topology.FredConfig{
		NPUs: 30, FanIn: []int{4, 2, 4}, LevelBW: []float64{3e12, 6e12, 12e12},
		IOCs: 4, IOCBW: 128e9, LinkLatency: 20e-9, InNetwork: true,
	})
	fabrics := []*topology.FredFabric{
		topology.NewFredVariant(netsim.New(sim.NewScheduler()), topology.FredD), three, ragged,
	}
	check := func(name string, s Schedule, pairs [][2]int, f *topology.FredFabric) {
		t.Helper()
		if len(s.Phases) != 1 || len(s.Phases[0]) != 1 {
			t.Fatalf("%s: %d phases, want one transfer", name, len(s.Phases))
		}
		tr := s.Phases[0][0]
		want := map[netsim.LinkID]bool{}
		latency := 0.0
		for _, p := range pairs {
			for _, l := range f.Route(p[0], p[1]) {
				want[l] = true
			}
			latency = max(latency, f.RouteLatency(p[0], p[1]))
		}
		got := map[netsim.LinkID]bool{}
		for _, l := range tr.Links {
			if got[l] {
				t.Fatalf("%s: link %d used twice", name, l)
			}
			if !want[l] {
				t.Fatalf("%s: link %d is on no endpoint route", name, l)
			}
			got[l] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d links, route union has %d", name, len(got), len(want))
		}
		if tr.LatencyOverride != latency {
			t.Fatalf("%s: latency %g, longest route %g", name, tr.LatencyOverride, latency)
		}
	}
	rng := newRand(11)
	for _, f := range fabrics {
		for trial := 0; trial < 50; trial++ {
			group := rng.Perm(f.NPUCount())[:2+rng.Intn(f.NPUCount()-1)]
			root := group[rng.Intn(len(group))]
			var all, toRoot, fromRoot [][2]int
			for _, a := range group {
				for _, b := range group {
					if a != b {
						all = append(all, [2]int{a, b})
					}
				}
				if a != root {
					toRoot = append(toRoot, [2]int{a, root})
					fromRoot = append(fromRoot, [2]int{root, a})
				}
			}
			name := fmt.Sprintf("%d-level group %v", f.Levels(), group)
			check(name+" all-reduce", FredInNetworkAllReduce(f, group, gb), all, f)
			check(name+" reduce", FredInNetworkReduce(f, group, root, gb), toRoot, f)
			check(name+" multicast", FredInNetworkMulticast(f, root, group, gb), fromRoot, f)
		}
	}
}
