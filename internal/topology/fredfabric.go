package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// FredConfig parameterizes a FRED wafer fabric: a tree of FRED
// switches with NPUs at the leaves and a single root. Section 6.1: "in
// general, tree height and the BW across different levels are
// determined by the system size and physical constraints." The
// evaluated 20-NPU fabric (Figure 8, Section 6.2.3) is the 2-level
// case.
type FredConfig struct {
	// NPUs is the leaf count (paper: 20).
	NPUs int
	// FanIn[k] is the number of children of each level-(k+1) switch:
	// FanIn[0] NPUs under a leaf switch (paper: 4), FanIn[1] leaf
	// switches under a level-2 switch, and so on. The tree has
	// len(FanIn) switch levels, and the product of the fan-ins must be
	// ≥ NPUs so that one root tops it.
	FanIn []int
	// LevelBW[k] is the per-direction bandwidth of the links between
	// level k and level k+1, level 0 being the NPUs: the NPU↔L1 links
	// (3 TB/s), then the L1↔L2 trunks (1.5 TB/s for Fred-A/B, 12 TB/s
	// for Fred-C/D), and so on.
	LevelBW     []float64
	IOCs        int     // I/O controllers, attached round-robin to L1 switches (18)
	IOCBW       float64 // per-direction controller bandwidth (128 GB/s)
	LinkLatency float64 // per-hop latency (20 ns)
	InNetwork   bool    // in-switch collective execution (Fred-B/D)
}

// Validate checks structural consistency.
func (c FredConfig) Validate() error {
	if c.NPUs < 1 {
		return fmt.Errorf("topology: FRED fabric needs NPUs ≥ 1")
	}
	if len(c.FanIn) == 0 || len(c.FanIn) != len(c.LevelBW) {
		return fmt.Errorf("topology: FanIn and LevelBW must be non-empty and equal length")
	}
	cap := 1
	for _, f := range c.FanIn {
		if f < 1 {
			return fmt.Errorf("topology: fan-in must be ≥ 1")
		}
		cap *= f
	}
	if cap < c.NPUs {
		return fmt.Errorf("topology: tree capacity %d < %d NPUs", cap, c.NPUs)
	}
	return nil
}

// FredVariant names one of the paper's Table 5 configurations.
type FredVariant string

// The four FRED variants of Table 5.
const (
	FredA FredVariant = "Fred-A" // mesh-equivalent bisection, endpoint collectives
	FredB FredVariant = "Fred-B" // mesh-equivalent bisection, in-network collectives
	FredC FredVariant = "Fred-C" // full 30 TB/s bisection, endpoint collectives
	FredD FredVariant = "Fred-D" // full 30 TB/s bisection, in-network collectives
)

// FredVariantConfig returns the Table 5 configuration for a variant:
// 20 NPUs, 4 per L1 switch, all 5 L1 switches under one L2 switch.
func FredVariantConfig(v FredVariant) FredConfig {
	var trunkBW float64
	switch v {
	case FredA, FredB:
		trunkBW = 1.5e12
	case FredC, FredD:
		trunkBW = 12e12
	default:
		panic(fmt.Sprintf("topology: unknown FRED variant %q", v))
	}
	return FredConfig{
		NPUs:        20,
		FanIn:       []int{4, 5},
		LevelBW:     []float64{3e12, trunkBW},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   v == FredB || v == FredD,
	}
}

type fredIOC struct {
	l1    int
	node  netsim.NodeID
	up    netsim.LinkID // ioc -> L1
	down  netsim.LinkID // L1 -> ioc
	load  []netsim.LinkID
	store []netsim.LinkID
}

// FredFabric is the hierarchical FRED wafer fabric: NPUs and I/O
// controllers hang off L1 (leaf) switches, and each level of switches
// connects to the next up to a single (logical) root. Because every
// FRED switch is internally nonblocking for the routed flow sets
// (Section 5), switch traversal is modelled as contention-free: only
// the fabric links carry load.
//
// Switch levels are indexed from 0 (the L1 switches) to Levels()-1
// (the root). Level-k switch i is the ancestor of L1 switches
// [i·span[k], (i+1)·span[k]).
type FredFabric struct {
	cfg     FredConfig
	variant FredVariant
	net     *netsim.Network
	span    []int // L1 switches under one switch of each level
	npus    []netsim.NodeID
	npuUp   []netsim.LinkID // npu -> its L1
	npuDown []netsim.LinkID // L1 -> npu
	// up[k][i] and down[k][i] connect level-k switch i with its parent;
	// the root has no trunk, so there are Levels()-1 trunk levels.
	up, down [][]netsim.LinkID
	iocs     []fredIOC
}

// NewFredFabric builds a FRED fabric in the given network. Switches are
// created from the root down, each followed by the trunk pair to its
// parent, then the NPUs and the controllers with their link pairs.
// Switch names carry their level and index ("l1.3"), except the root's
// ("l2" at two levels).
func NewFredFabric(net *netsim.Network, cfg FredConfig) *FredFabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	levels := len(cfg.FanIn)
	l1s := (cfg.NPUs + cfg.FanIn[0] - 1) / cfg.FanIn[0]
	f := &FredFabric{
		cfg: cfg, net: net, variant: "custom",
		span:    make([]int, levels),
		npus:    make([]netsim.NodeID, cfg.NPUs),
		npuUp:   make([]netsim.LinkID, cfg.NPUs),
		npuDown: make([]netsim.LinkID, cfg.NPUs),
		up:      make([][]netsim.LinkID, levels-1),
		down:    make([][]netsim.LinkID, levels-1),
		iocs:    make([]fredIOC, cfg.IOCs),
	}
	f.span[0] = 1
	for k := 1; k < levels; k++ {
		f.span[k] = f.span[k-1] * cfg.FanIn[k]
	}
	rootName := fmt.Sprintf("l%d", levels)
	parents, parentNames := []netsim.NodeID{net.AddNode("fred-" + rootName)}, []string{rootName}
	for k := levels - 2; k >= 0; k-- {
		n := (l1s + f.span[k] - 1) / f.span[k]
		nodes, names := make([]netsim.NodeID, n), make([]string, n)
		f.up[k], f.down[k] = make([]netsim.LinkID, n), make([]netsim.LinkID, n)
		for i := range nodes {
			names[i] = fmt.Sprintf("l%d.%d", k+1, i)
			nodes[i] = net.AddNode("fred-" + names[i])
			p := i / cfg.FanIn[k+1]
			f.up[k][i] = net.AddLink(nodes[i], parents[p], cfg.LevelBW[k+1], cfg.LinkLatency, names[i]+"->"+parentNames[p])
			f.down[k][i] = net.AddLink(parents[p], nodes[i], cfg.LevelBW[k+1], cfg.LinkLatency, parentNames[p]+"->"+names[i])
		}
		parents, parentNames = nodes, names
	}
	for i := range f.npus {
		npu := net.AddNode(fmt.Sprintf("npu%d", i))
		l1 := parents[f.L1Of(i)]
		f.npus[i] = npu
		f.npuUp[i] = net.AddLink(npu, l1, cfg.LevelBW[0], cfg.LinkLatency, fmt.Sprintf("npu%d->l1", i))
		f.npuDown[i] = net.AddLink(l1, npu, cfg.LevelBW[0], cfg.LinkLatency, fmt.Sprintf("l1->npu%d", i))
	}
	for i := range f.iocs {
		l1 := i % l1s
		node := net.AddNode(fmt.Sprintf("ioc%d", i))
		f.iocs[i] = fredIOC{
			l1:   l1,
			node: node,
			up:   net.AddLink(node, parents[l1], cfg.IOCBW, cfg.LinkLatency, fmt.Sprintf("ioc%d->l1.%d", i, l1)),
			down: net.AddLink(parents[l1], node, cfg.IOCBW, cfg.LinkLatency, fmt.Sprintf("l1.%d->ioc%d", l1, i)),
		}
	}
	return f
}

// NewFredVariant builds one of the Table 5 FRED configurations.
func NewFredVariant(net *netsim.Network, v FredVariant) *FredFabric {
	f := NewFredFabric(net, FredVariantConfig(v))
	f.variant = v
	return f
}

// Config returns the fabric's configuration.
func (f *FredFabric) Config() FredConfig { return f.cfg }

// Variant returns the Table 5 variant name, or "custom".
func (f *FredFabric) Variant() FredVariant { return f.variant }

// InNetwork reports whether the fabric performs in-switch collective
// execution (Fred-B/D).
func (f *FredFabric) InNetwork() bool { return f.cfg.InNetwork }

// Levels returns the number of switch levels (tree height above the
// NPUs).
func (f *FredFabric) Levels() int { return len(f.span) }

// Name implements Wafer.
func (f *FredFabric) Name() string { return string(f.variant) }

// Network implements Wafer.
func (f *FredFabric) Network() *netsim.Network { return f.net }

// NPUCount implements Wafer.
func (f *FredFabric) NPUCount() int { return len(f.npus) }

// IOCCount implements Wafer.
func (f *FredFabric) IOCCount() int { return len(f.iocs) }

// L1Count returns the number of leaf switches.
func (f *FredFabric) L1Count() int { return (f.cfg.NPUs + f.cfg.FanIn[0] - 1) / f.cfg.FanIn[0] }

// L1Of returns the leaf switch index of an NPU.
func (f *FredFabric) L1Of(npu int) int { return npu / f.cfg.FanIn[0] }

// SwitchOf returns the index of an NPU's ancestor switch at a level
// (0 = its L1 switch).
func (f *FredFabric) SwitchOf(npu, level int) int { return f.L1Of(npu) / f.span[level] }

// LCALevel returns the level of the lowest switch above two NPUs: 0
// when they share an L1 switch, Levels()-1 when only the root joins
// them.
func (f *FredFabric) LCALevel(a, b int) int { return f.lca(f.L1Of(a), f.L1Of(b)) }

// lca is LCALevel on L1 switch indices.
func (f *FredFabric) lca(a, b int) int {
	k := 0
	for a/f.span[k] != b/f.span[k] {
		k++
	}
	return k
}

// NPUsUnder returns the NPU indices attached to a leaf switch.
func (f *FredFabric) NPUsUnder(l1 int) []int {
	var out []int
	for i := l1 * f.cfg.FanIn[0]; i < (l1+1)*f.cfg.FanIn[0] && i < f.cfg.NPUs; i++ {
		out = append(out, i)
	}
	return out
}

// UpLink returns the NPU→L1 link of an NPU.
func (f *FredFabric) UpLink(npu int) netsim.LinkID { return f.npuUp[npu] }

// DownLink returns the L1→NPU link of an NPU.
func (f *FredFabric) DownLink(npu int) netsim.LinkID { return f.npuDown[npu] }

// TrunkUp returns the link from a switch to its parent (level 0, the
// L1→L2 trunks, at two levels).
func (f *FredFabric) TrunkUp(level, sw int) netsim.LinkID { return f.up[level][sw] }

// TrunkDown returns the link from a switch's parent down to it.
func (f *FredFabric) TrunkDown(level, sw int) netsim.LinkID { return f.down[level][sw] }

// NPUPortBW implements Wafer.
func (f *FredFabric) NPUPortBW() float64 { return f.cfg.LevelBW[0] }

// IOCBW implements Wafer.
func (f *FredFabric) IOCBW() float64 { return f.cfg.IOCBW }

// route returns first, then the trunks from L1 switch a up to the
// lowest common switch and down to L1 switch b, then last.
func (f *FredFabric) route(first netsim.LinkID, a, b int, last netsim.LinkID) []netsim.LinkID {
	top := f.lca(a, b)
	links := make([]netsim.LinkID, 0, 2+2*top)
	links = append(links, first)
	for k := 0; k < top; k++ {
		links = append(links, f.up[k][a/f.span[k]])
	}
	for k := top - 1; k >= 0; k-- {
		links = append(links, f.down[k][b/f.span[k]])
	}
	return append(links, last)
}

// Route implements Wafer: up to the lowest common switch, then down.
func (f *FredFabric) Route(src, dst int) []netsim.LinkID {
	if src == dst {
		return nil
	}
	return f.route(f.npuUp[src], f.L1Of(src), f.L1Of(dst), f.npuDown[dst])
}

// RouteLatency returns the up-down route's cut-through latency: 2 hops
// under one L1 switch, 2 more per level climbed.
func (f *FredFabric) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return float64(2*(f.LCALevel(src, dst)+1)) * f.cfg.LinkLatency
}

// treeCap bounds the length of an IOC tree.
func (f *FredFabric) treeCap() int { return len(f.npus) + 2 + f.L1Count()*len(f.up) }

// IOCLoadTree implements Wafer: the controller's stream climbs from
// its L1 to the root, fanning out at every switch on the way, and
// descends through every other switch to every NPU.
func (f *FredFabric) IOCLoadTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.load != nil {
		return c.load
	}
	out := append(make([]netsim.LinkID, 0, f.treeCap()), c.up)
	for k := range f.up {
		out = append(out, f.up[k][c.l1/f.span[k]])
	}
	for k := range f.down {
		for i, l := range f.down[k] {
			if i != c.l1/f.span[k] {
				out = append(out, l)
			}
		}
	}
	c.load = append(out, f.npuDown...)
	return c.load
}

// IOCStoreTree implements Wafer: every NPU's contribution climbs
// (reduced in-switch for in-network variants, forwarded otherwise) to
// the switch on the controller's path, descends that path and drains
// out. Link occupancy is identical either way; in-network execution
// matters for NPU-side traffic, not for the tree shape.
func (f *FredFabric) IOCStoreTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.store != nil {
		return c.store
	}
	out := append(make([]netsim.LinkID, 0, f.treeCap()), f.npuUp...)
	for k := range f.up {
		for i, l := range f.up[k] {
			if i != c.l1/f.span[k] {
				out = append(out, l)
			}
		}
	}
	for k := len(f.down) - 1; k >= 0; k-- {
		out = append(out, f.down[k][c.l1/f.span[k]])
	}
	c.store = append(out, c.down)
	return c.store
}

// IOCToNPU implements Wafer.
func (f *FredFabric) IOCToNPU(ioc, npu int) []netsim.LinkID {
	c := &f.iocs[ioc]
	return f.route(c.up, c.l1, f.L1Of(npu), f.npuDown[npu])
}

// NPUToIOC implements Wafer.
func (f *FredFabric) NPUToIOC(npu, ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	return f.route(f.npuUp[npu], f.L1Of(npu), c.l1, c.down)
}

// NearestIOC implements Wafer: controllers under the NPU's own L1,
// spread round-robin.
func (f *FredFabric) NearestIOC(npu int) int {
	l1 := f.L1Of(npu)
	var candidates []int
	for i, c := range f.iocs {
		if c.l1 == l1 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return npu % len(f.iocs)
	}
	return candidates[npu%len(candidates)]
}

// BisectionBW implements Wafer: half the aggregate capacity into the
// root — 30 TB/s for Fred-C/D, 3.75 TB/s for Fred-A/B (Table 5).
func (f *FredFabric) BisectionBW() float64 {
	top := len(f.up) - 1
	if top < 0 {
		return float64(len(f.npus)) * f.cfg.LevelBW[0] / 2
	}
	return float64(len(f.up[top])) * f.cfg.LevelBW[top+1] / 2
}

// StreamUtilization returns the sustainable fraction of I/O line rate
// when all controllers stream concurrently. Every trunk carries all
// controller streams, so the narrowest trunk level must fit the
// aggregate: with 12 TB/s L1-L2 links the 18×128 GB/s fits and
// utilisation is 1.0 (Section 8.2).
func (f *FredFabric) StreamUtilization() float64 {
	aggregate := float64(len(f.iocs)) * f.cfg.IOCBW
	util := 1.0
	for _, bw := range f.cfg.LevelBW[1:] {
		if aggregate > bw {
			util = min(util, bw/aggregate)
		}
	}
	return util
}
