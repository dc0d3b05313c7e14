package topology_test

import (
	"testing"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// The in-network all-reduce link set is built in package collective;
// this external test checks which links of a 3-level fabric it uses.
func TestFredTreeInNetworkAllReduceLinks(t *testing.T) {
	tr := topology.NewFredFabric(netsim.New(sim.NewScheduler()), topology.FredConfig{
		NPUs:        64,
		FanIn:       []int{4, 4, 4},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   true,
	})
	links := func(group []int) []netsim.LinkID {
		return collective.FredInNetworkAllReduce(tr, group, 1e9).Phases[0][0].Links
	}
	// Group under one leaf: only NPU links, no switch trunks.
	if got := len(links([]int{0, 1, 2, 3})); got != 8 {
		t.Fatalf("leaf-local group uses %d links, want 8", got)
	}
	// Group across the root: NPU links + leaf and mid trunks both ways.
	// 2 NPUs × 2 + 2 leaves × 2 + 2 mids × 2 = 12.
	if got := len(links([]int{0, 63})); got != 12 {
		t.Fatalf("cross-root pair uses %d links, want 12", got)
	}
}
