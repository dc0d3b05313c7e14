package main

import (
	"time"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/netsim"
)

// gridBytes is the all-reduce payload of every scaleout-grid run.
const gridBytes = 10e9

// gridConfig is the 16×16 hierarchical grid of Fred-D wafers at the
// package's default port configuration.
func gridConfig() multiwafer.Config {
	cfg := multiwafer.DefaultConfig()
	cfg.Wafers = 256
	cfg.Dims = []int{16, 16}
	return cfg
}

// gridResult is one variant's simulated outcome: the completion time
// and the rate engine's deterministic work counters.
type gridResult struct {
	ElapsedS float64          `json:"elapsed_s"`
	Fill     netsim.FillStats `json:"fill"`
}

// scaleoutGrid runs one hierarchical GlobalAllReduce and one
// NaiveAllReduce per pass, each on a freshly built system.
type scaleoutGrid struct {
	cfg     multiwafer.Config
	order   []string
	count   bool
	results map[string]gridResult
}

func newScaleoutGrid(seed int64, pass int, mode string) (passRunner, error) {
	cfg := gridConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &scaleoutGrid{cfg: cfg, order: gridPlan(seed, pass), count: mode == modeCount}, nil
}

func (g *scaleoutGrid) run(out *passResult) {
	g.results = make(map[string]gridResult, 2)
	for _, variant := range g.order {
		t0 := time.Now()
		sys := multiwafer.New(g.cfg)
		t1 := time.Now()
		var reg *metrics.Registry
		if g.count {
			reg = metrics.NewRegistry()
			sys.Network().SetMetrics(reg)
		}
		sched := sys.GlobalAllReduce(gridBytes)
		if variant == "naive" {
			sched = sys.NaiveAllReduce(gridBytes)
		}
		t2 := time.Now()
		elapsed := sys.Run(sched)
		t3 := time.Now()
		net := sys.Network()
		events := float64(net.Scheduler().Fired())
		g.results[variant] = gridResult{ElapsedS: elapsed, Fill: net.FillStats()}
		sys.Close()

		out.span("multiwafer.build_s", t1.Sub(t0).Seconds())
		out.span("multiwafer.schedule_s", t2.Sub(t1).Seconds())
		out.span("multiwafer.run_"+variant+"_s", t3.Sub(t2).Seconds())
		out.span("sim.run_s", t3.Sub(t2).Seconds())
		out.addCounter("sim.events", events)
		if reg != nil {
			net.FlushMetrics()
			out.countersFrom(reg.Export(metrics.Manifest{}))
		}
	}
	out.Jobs = 1
}

func (g *scaleoutGrid) check(ref *references, out *passResult) {
	for _, variant := range g.order {
		out.Attempted++
		want, ok := ref.ScaleoutGrid[variant]
		if !ok {
			out.fail("scaleout-grid: no reference for %s", variant)
			continue
		}
		if got := g.results[variant]; got != want {
			out.fail("scaleout-grid: %s = %+v, reference %+v", variant, got, want)
		}
	}
}

func (g *scaleoutGrid) close() {}

func (g *scaleoutGrid) recordRefs(ref *references) error {
	ref.ScaleoutGrid = g.results
	return nil
}
