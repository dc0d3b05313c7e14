package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
)

// paperStudy is one study of `fredsim all`, driven through the
// Session methods the CLI itself calls.
type paperStudy struct {
	name string
	run  func(s *experiments.Session) []*report.Table
}

// one adapts a Session method's (rows, table) result.
func one[R any](_ R, t *report.Table) []*report.Table { return []*report.Table{t} }

// paperStudies is every study `fredsim all` runs, in its order.
var paperStudies = []paperStudy{
	{"hw", func(*experiments.Session) []*report.Table { return experiments.HWTables() }},
	{"fig1", func(*experiments.Session) []*report.Table {
		return []*report.Table{experiments.Figure1(parallelism.Strategy{MP: 4, DP: 3, PP: 2})}
	}},
	{"meshio", func(s *experiments.Session) []*report.Table { return one(s.MeshIOStudy()) }},
	{"placement", func(s *experiments.Session) []*report.Table { return one(s.PlacementStudy()) }},
	{"nonaligned", func(s *experiments.Session) []*report.Table { return one(s.NonAlignedStudy()) }},
	{"fig2", func(s *experiments.Session) []*report.Table { return one(s.Figure2()) }},
	{"fig9", func(s *experiments.Session) []*report.Table { return one(s.Figure9()) }},
	{"fig10", func(s *experiments.Session) []*report.Table { return one(s.Figure10(false)) }},
	{"fig11a", func(s *experiments.Session) []*report.Table { return one(s.Figure11a()) }},
	{"fig11b", func(s *experiments.Session) []*report.Table { return one(s.Figure11b()) }},
	{"scaling", func(s *experiments.Session) []*report.Table { return one(s.ScalabilityStudy()) }},
	{"scaleout", func(s *experiments.Session) []*report.Table { return one(s.ScaleOutStudy()) }},
	{"inference", func(s *experiments.Session) []*report.Table { return one(s.InferenceStudy()) }},
	{"crossover", func(s *experiments.Session) []*report.Table { return one(s.CrossoverStudy()) }},
	{"batch", func(s *experiments.Session) []*report.Table { return one(s.BatchSensitivity()) }},
	{"profile", func(s *experiments.Session) []*report.Table {
		return []*report.Table{s.CommProfile(experiments.Baseline), s.CommProfile(experiments.FredD)}
	}},
	{"packets", func(s *experiments.Session) []*report.Table { return one(s.PacketValidation()) }},
	{"heat", func(s *experiments.Session) []*report.Table {
		return one(s.TrainingHeatmap(parallelism.Strategy{MP: 3, DP: 3, PP: 2}))
	}},
	{"ablations", func(s *experiments.Session) []*report.Table {
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
	{"ep", func(s *experiments.Session) []*report.Table { return one(s.EPStudy()) }},
	{"faults", func(s *experiments.Session) []*report.Table { return one(s.FaultSweep()) }},
	{"summary", func(s *experiments.Session) []*report.Table { return one(s.Summary()) }},
}

func lookupStudy(name string) (paperStudy, bool) {
	for _, st := range paperStudies {
		if st.name == name {
			return st, true
		}
	}
	return paperStudy{}, false
}

// studyDigest is the SHA-256 of a study's tables rendered as CSV, the
// form `fredsim <study> -csv` prints.
func studyDigest(tables []*report.Table) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintln(h, t.CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperAll runs every study in one session at parallel 1, in the
// pass's seeded order.
type paperAll struct {
	order   []string
	count   bool
	session *experiments.Session
	digests map[string]string
}

func newPaperAll(seed int64, pass int, mode string) (passRunner, error) {
	p := &paperAll{order: paperAllPlan(seed, pass), count: mode == modeCount}
	p.session = experiments.NewSession()
	p.session.SetParallel(1)
	if p.count {
		p.session.CollectMetrics(true)
	}
	return p, nil
}

func (p *paperAll) run(out *passResult) {
	p.digests = make(map[string]string, len(p.order))
	tables := make(map[string][]*report.Table, len(p.order))
	for _, name := range p.order {
		st, _ := lookupStudy(name)
		t0 := time.Now()
		tables[name] = st.run(p.session)
		out.span("experiments."+name+".wall_s", time.Since(t0).Seconds())
	}
	if err := p.session.Err(); err != nil {
		out.fail("session: %v", err)
	}
	// Digests are computed once the pass is timed; the tables were
	// built inside it either way.
	for name, ts := range tables {
		p.digests[name] = studyDigest(ts)
	}
	out.Jobs = 1
}

func (p *paperAll) check(ref *references, out *passResult) {
	for _, name := range p.order {
		out.Attempted++
		want, ok := ref.PaperAll[name]
		if !ok {
			out.fail("paper-all: no reference digest for study %s", name)
			continue
		}
		if got := p.digests[name]; got != want {
			out.fail("paper-all: study %s digest %s, reference %s", name, got, want)
		}
	}
	if p.count {
		counters := p.session.Metrics().Export(metrics.Manifest{})
		out.countersFrom(counters)
	}
}

func (p *paperAll) close() {}

// recordRefs stores this pass's digests as the references.
func (p *paperAll) recordRefs(ref *references) error {
	if err := p.session.Err(); err != nil {
		return err
	}
	ref.PaperAll = p.digests
	return nil
}
