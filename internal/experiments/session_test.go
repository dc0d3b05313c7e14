package experiments

import (
	"sync"
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/workload"
)

// The Session thread-safety contract: concurrent RunTraining calls on
// one session with link-stats collection enabled must be race-free
// (run with -race) and lose no hotspot table. Regression test for the
// formerly unsynchronized append to the package-global table slice.
func TestSessionConcurrentRunTraining(t *testing.T) {
	s := NewSession()
	s.CollectLinkStats(true)
	strat := parallelism.Strategy{MP: 1, DP: 20, PP: 1}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.RunTraining(Baseline, workload.ResNet152(), strat, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if r.Total <= 0 {
				t.Error("training produced non-positive iteration time")
			}
		}()
	}
	wg.Wait()
	if n := len(s.LinkStatsTables()); n != 2 {
		t.Fatalf("collected %d hotspot tables, want 2", n)
	}
}

// A tracer forces the pool sequential: merged traces need a single
// builder for the continuous #<seq> namespace.
func TestTracerForcesSequential(t *testing.T) {
	s := NewSession()
	s.SetParallel(8)
	if got := s.workers(); got != 8 {
		t.Fatalf("workers = %d, want 8", got)
	}
	s.SetTracer(trace.NewRecorder())
	if got := s.workers(); got != 1 {
		t.Fatalf("workers with tracer = %d, want 1", got)
	}
	s.SetTracer(nil)
	if got := s.workers(); got != 8 {
		t.Fatalf("workers after detach = %d, want 8", got)
	}
}

// csvOf renders a driver run (tables plus collected hotspot tables) at
// a given pool size to one CSV blob.
func csvOf(t *testing.T, parallel int, drive func(s *Session) string) string {
	t.Helper()
	s := NewSession()
	s.SetParallel(parallel)
	s.CollectLinkStats(true)
	out := drive(s)
	for _, tbl := range s.LinkStatsTables() {
		out += tbl.CSV()
	}
	return out
}

// The determinism guarantee behind -parallel: every pool size emits
// byte-identical output. MeshIOStudy exercises plain fan-out cheaply;
// Figure 2 additionally exercises the cell-order hotspot-table merge (one
// table per training cell).
func TestParallelMatchesSequential(t *testing.T) {
	drivers := map[string]func(s *Session) string{
		"meshio": func(s *Session) string { _, tbl := s.MeshIOStudy(); return tbl.CSV() },
		"fig2":   func(s *Session) string { _, tbl := s.Figure2(); return tbl.CSV() },
	}
	for name, drive := range drivers {
		seq := csvOf(t, 1, drive)
		for _, n := range []int{2, 4} {
			if par := csvOf(t, n, drive); par != seq {
				t.Errorf("%s: -parallel %d output differs from sequential:\nseq:\n%s\npar:\n%s",
					name, n, seq, par)
			}
		}
	}
}

// The golden acceptance check over the headline artifact: the Figure
// 10 CSV (and its hotspot tables) is byte-identical between
// -parallel 1 and -parallel 4.
func TestFigure10CSVParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 10 sweep twice")
	}
	drive := func(s *Session) string { _, tbl := s.Figure10(false); return tbl.CSV() }
	seq := csvOf(t, 1, drive)
	par := csvOf(t, 4, drive)
	if seq != par {
		t.Fatalf("Figure 10 CSV differs between -parallel 1 and -parallel 4:\nseq:\n%s\npar:\n%s", seq, par)
	}
}
