package experiments

import (
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
)

// Study is one named entry of the paper's evaluation as fredsim runs
// it: Run regenerates the study's tables on the session. ab asks
// Figure 10 to add Fred-A and Fred-B; every other study ignores it.
type Study struct {
	Name string
	Desc string
	Run  func(s *Session, ab bool) []*report.Table
}

// one adapts a driver's (rows, table) result to a study's tables.
func one[R any](_ R, t *report.Table) []*report.Table { return []*report.Table{t} }

// Studies lists every study in `fredsim all` order.
var Studies = []Study{
	{"hw", "Tables 3-5: physical parameters and FRED overhead",
		func(*Session, bool) []*report.Table { return HWTables() }},
	{"fig1", "Figure 1: MP(4)-DP(3)-PP(2) worker IDs and communication groups",
		func(*Session, bool) []*report.Table {
			return []*report.Table{Figure1(parallelism.Strategy{MP: 4, DP: 3, PP: 2})}
		}},
	{"meshio", "Section 3.2.1: mesh I/O hotspot law",
		func(s *Session, _ bool) []*report.Table { return one(s.MeshIOStudy()) }},
	{"placement", "Figure 5: device placement trade-off",
		func(s *Session, _ bool) []*report.Table { return one(s.PlacementStudy()) }},
	{"nonaligned", "Figure 6: non-aligned strategy congestion + heatmap",
		func(s *Session, _ bool) []*report.Table { return one(s.NonAlignedStudy()) }},
	{"fig2", "Figure 2: Transformer-17B strategies on the baseline mesh",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure2()) }},
	{"fig9", "Figure 9: communication microbenchmarks per fabric",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure9()) }},
	{"fig10", "Figure 10: end-to-end training, all workloads (-ab adds Fred-A/B)",
		func(s *Session, ab bool) []*report.Table { return one(s.Figure10(ab)) }},
	{"fig11a", "Figure 11(a): Transformer-17B strategy sweep, baseline vs Fred-D",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure11a()) }},
	{"fig11b", "Figure 11(b): Transformer-1T strategy sweep",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure11b()) }},
	{"scaling", "extension: wafer-size scaling, mesh vs FRED tree",
		func(s *Session, _ bool) []*report.Table { return one(s.ScalabilityStudy()) }},
	{"scaleout", "extension: hierarchical multi-wafer scale-out vs NPU count",
		func(s *Session, _ bool) []*report.Table { return one(s.ScaleOutStudy()) }},
	{"inference", "future work: auto-regressive decode latency",
		func(s *Session, _ bool) []*report.Table { return one(s.InferenceStudy()) }},
	{"crossover", "Section 2.2: tree vs ring all-reduce crossover by message size",
		func(s *Session, _ bool) []*report.Table { return one(s.CrossoverStudy()) }},
	{"batch", "Transformer-17B speedup vs minibatch size",
		func(s *Session, _ bool) []*report.Table { return one(s.BatchSensitivity()) }},
	{"profile", "per-class communication profiles, Baseline and Fred-D",
		func(s *Session, _ bool) []*report.Table {
			return []*report.Table{s.CommProfile(Baseline), s.CommProfile(FredD)}
		}},
	{"packets", "flit-level wormhole NoC vs the flow model's contention",
		func(s *Session, _ bool) []*report.Table { return one(s.PacketValidation()) }},
	{"heat", "per-link traffic heatmap of one training iteration",
		func(s *Session, _ bool) []*report.Table {
			return one(s.TrainingHeatmap(parallelism.Strategy{MP: 3, DP: 3, PP: 2}))
		}},
	{"ablations", "design-choice ablations: m, rings, buckets, bisection, placement, schedules",
		func(s *Session, _ bool) []*report.Table {
			var ts []*report.Table
			ts = append(ts, one(s.MiddleStageAblation())...)
			ts = append(ts, one(s.RingDirectionAblation())...)
			ts = append(ts, one(s.GradBucketAblation())...)
			ts = append(ts, one(s.BisectionSweep())...)
			ts = append(ts, one(s.MultiWaferStudy())...)
			ts = append(ts, one(s.PlacementSearchAblation())...)
			ts = append(ts, one(s.ScheduleAblation())...)
			return ts
		}},
	{"ep", "extension: beyond-3D parallelism (Expert Parallelism)",
		func(s *Session, _ bool) []*report.Table { return one(s.EPStudy()) }},
	{"faults", "robustness: FRED-vs-mesh degradation under injected failures",
		func(s *Session, _ bool) []*report.Table { return one(s.FaultSweep()) }},
	{"summary", "every headline number next to the paper's",
		func(s *Session, _ bool) []*report.Table { return one(s.Summary()) }},
}

// LookupStudy returns the study with the given name.
func LookupStudy(name string) (Study, bool) {
	for _, st := range Studies {
		if st.Name == name {
			return st, true
		}
	}
	return Study{}, false
}
