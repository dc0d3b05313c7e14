package topology

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// threeLevel builds a 64-NPU, 3-level fabric: 4 NPUs per leaf (16
// leaves), 4 leaves per mid switch (4 mids), one root.
func threeLevel() *FredFabric {
	return NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{
		NPUs:        64,
		FanIn:       []int{4, 4, 4},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   true,
	})
}

// TestFredVariantConstructionGolden pins the node and link names, ends,
// bandwidths and latencies of Fred-A..D in ID order: the metrics,
// trace, linkstats and critpath artifacts key on these LinkIDs and
// names.
func TestFredVariantConstructionGolden(t *testing.T) {
	var b strings.Builder
	for _, v := range []FredVariant{FredA, FredB, FredC, FredD} {
		net := netsim.New(sim.NewScheduler())
		NewFredVariant(net, v)
		for i := 0; i < net.NumNodes(); i++ {
			fmt.Fprintf(&b, "%s node %d %s\n", v, i, net.NodeName(netsim.NodeID(i)))
		}
		for i := 0; i < net.NumLinks(); i++ {
			l := net.Link(netsim.LinkID(i))
			fmt.Fprintf(&b, "%s link %d %s %s->%s %g %g\n", v, i, l.Name, net.NodeName(l.Src), net.NodeName(l.Dst), l.Bandwidth, l.Latency)
		}
	}
	want, err := os.ReadFile("testdata/fred_construction.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}

func TestFredTreeShape(t *testing.T) {
	tr := threeLevel()
	if tr.Levels() != 3 {
		t.Fatalf("levels = %d", tr.Levels())
	}
	if tr.NPUCount() != 64 || tr.IOCCount() != 18 {
		t.Fatalf("NPUs %d, IOCs %d", tr.NPUCount(), tr.IOCCount())
	}
	if got := tr.L1Count(); got != 16 {
		t.Fatalf("leaf switches = %d, want 16", got)
	}
	if got := len(tr.up[1]); got != 4 {
		t.Fatalf("mid switches = %d, want 4", got)
	}
	if got := len(tr.up); got != 2 {
		t.Fatalf("trunk levels = %d, want 2 (one root)", got)
	}
}

func TestFredTreeTwoLevelMatchesFabric(t *testing.T) {
	// A fabric configured by hand with the Fred-D parameters must report
	// the same bisection as the Table 5 variant constructor.
	tr := NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{
		NPUs:        20,
		FanIn:       []int{4, 5},
		LevelBW:     []float64{3e12, 12e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   true,
	})
	fd := NewFredVariant(netsim.New(sim.NewScheduler()), FredD)
	if tr.BisectionBW() != fd.BisectionBW() {
		t.Fatalf("tree bisection %g vs fabric %g", tr.BisectionBW(), fd.BisectionBW())
	}
	if tr.StreamUtilization() != 1 {
		t.Fatalf("stream util %g", tr.StreamUtilization())
	}
}

func TestFredTreeConfigValidation(t *testing.T) {
	bad := []FredConfig{
		{NPUs: 0, FanIn: []int{4}, LevelBW: []float64{1}},
		{NPUs: 4, FanIn: []int{4}, LevelBW: []float64{1, 2}},
		{NPUs: 4, FanIn: nil, LevelBW: nil},
		{NPUs: 100, FanIn: []int{4, 4}, LevelBW: []float64{1, 1}}, // capacity 16 < 100
		{NPUs: 4, FanIn: []int{0}, LevelBW: []float64{1}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d validated: %+v", i, cfg)
		}
	}
}

func TestFredTreeRoutesConnected(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	f := func(a, b uint8) bool {
		src, dst := int(a)%64, int(b)%64
		route := tr.Route(src, dst)
		if src == dst {
			return len(route) == 0
		}
		cur := tr.npus[src]
		for _, id := range route {
			l := net.Link(id)
			if l.Src != cur {
				return false
			}
			cur = l.Dst
		}
		return cur == tr.npus[dst]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFredTreeRouteLengths(t *testing.T) {
	tr := threeLevel()
	cases := []struct {
		src, dst, hops int
	}{
		{0, 3, 2},   // same leaf
		{0, 4, 4},   // same mid, different leaves
		{0, 63, 6},  // across the root
		{16, 17, 2}, // same leaf again
	}
	for _, c := range cases {
		if got := len(tr.Route(c.src, c.dst)); got != c.hops {
			t.Errorf("Route(%d,%d) = %d hops, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

var routeSink []netsim.LinkID

// TestFredRouteAllocs pins the routing hot path: Route allocates only
// the slice it returns, RouteLatency nothing.
func TestFredRouteAllocs(t *testing.T) {
	tr := threeLevel()
	if n := testing.AllocsPerRun(100, func() { routeSink = tr.Route(0, 63) }); n != 1 {
		t.Errorf("Route: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tr.RouteLatency(0, 63) }); n != 0 {
		t.Errorf("RouteLatency: %v allocs, want 0", n)
	}
}

func TestFredTreeLoadTreeReachesAll(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	for ioc := 0; ioc < tr.IOCCount(); ioc += 5 {
		reached := map[netsim.NodeID]bool{}
		for _, id := range tr.IOCLoadTree(ioc) {
			reached[net.Link(id).Dst] = true
		}
		for i, n := range tr.npus {
			if !reached[n] {
				t.Fatalf("ioc %d misses NPU %d", ioc, i)
			}
		}
	}
}

func TestFredTreeStoreTreeDrainsAll(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	srcs := map[netsim.NodeID]bool{}
	for _, id := range tr.IOCStoreTree(3) {
		srcs[net.Link(id).Src] = true
	}
	for i, n := range tr.npus {
		if !srcs[n] {
			t.Fatalf("store tree misses NPU %d", i)
		}
	}
}

func TestFredTreeIOCRoutesValid(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	for _, npu := range []int{0, 17, 42, 63} {
		ioc := tr.NearestIOC(npu)
		down := tr.IOCToNPU(ioc, npu)
		if net.Link(down[len(down)-1]).Dst != tr.npus[npu] {
			t.Fatalf("IOCToNPU(%d,%d) wrong endpoint", ioc, npu)
		}
		up := tr.NPUToIOC(npu, ioc)
		if net.Link(up[0]).Src != tr.npus[npu] {
			t.Fatalf("NPUToIOC wrong start")
		}
		if net.Link(up[len(up)-1]).Dst != tr.iocs[ioc].node {
			t.Fatalf("NPUToIOC wrong endpoint")
		}
	}
}

func TestFredTreeIsWafer(t *testing.T) {
	var _ Wafer = threeLevel()
}
