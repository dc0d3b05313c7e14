package experiments

import (
	"flag"
	"fmt"
	"io"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
)

// ArtifactFlags are the artifact and observability flags the fred CLIs
// share: -trace, -linkstats, -metrics, -critpath, -timeseries,
// -progress, -debug-addr, -cpuprofile, -memprofile and -mutexprofile.
// NewArtifactFlags registers them, Start attaches them to a Session,
// and Write writes the requested artifacts once the run is over.
type ArtifactFlags struct {
	Trace, Metrics, CritPath, Timeseries string
	LinkStats, Progress                  bool
	DebugAddr                            string
	CPUProfile, MemProfile, MutexProfile string

	tool   string
	rec    *trace.Recorder
	engine *obs.Engine
	status *obs.StatusLine
}

// NewArtifactFlags registers the shared flags on fs for the named tool,
// which prefixes every message and names the status line.
func NewArtifactFlags(fs *flag.FlagSet, tool string) *ArtifactFlags {
	a := &ArtifactFlags{tool: tool}
	fs.StringVar(&a.Trace, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.BoolVar(&a.LinkStats, "linkstats", false, "report the top-10 link hotspots of each training run")
	fs.StringVar(&a.Metrics, "metrics", "", "write a fred-metrics JSON artifact (manifest + all series) to this file")
	fs.StringVar(&a.CritPath, "critpath", "", "write a fred-critpath JSON artifact (per-iteration blame decomposition) to this file")
	fs.StringVar(&a.Timeseries, "timeseries", "", "write a fred-timeseries JSON artifact (flight-recorder load series per simulation) to this file")
	fs.BoolVar(&a.Progress, "progress", false, "show a live status line (cells done/total, elapsed, ETA) on stderr")
	fs.StringVar(&a.DebugAddr, "debug-addr", "", "serve the debug HTTP endpoint (/progress, /progress/stream, /debug/vars, /debug/pprof) on this host:port")
	fs.StringVar(&a.CPUProfile, "cpuprofile", "", "write a CPU profile of the simulator to this file")
	fs.StringVar(&a.MemProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&a.MutexProfile, "mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	return a
}

// Start attaches the requested outputs to s: a trace recorder with
// the given process name, the collect switches, the progress engine
// with its status line and debug endpoint, and the simulator
// profiles. After a nil error the caller must call stop when the run
// is over, which writes the end-of-run profiles.
func (a *ArtifactFlags) Start(s *Session, process string, stderr io.Writer) (stop func() error, err error) {
	if a.Trace != "" {
		a.rec = trace.NewRecorder()
		a.rec.SetProcessName(process)
		s.SetTracer(a.rec)
	}
	s.CollectLinkStats(a.LinkStats)
	s.CollectMetrics(a.Metrics != "")
	s.CollectCritPath(a.CritPath != "")
	s.CollectTimeseries(a.Timeseries != "")
	if a.Progress || a.DebugAddr != "" {
		a.engine = obs.NewEngine(nil)
		s.SetProgress(a.engine)
		if a.Progress {
			a.status = obs.NewStatusLine(stderr, a.tool)
			a.engine.OnUpdate(a.status.Update)
		}
		if a.DebugAddr != "" {
			if _, err := obs.StartServer(a.DebugAddr, a.engine, stderr); err != nil {
				return nil, err
			}
		}
	}
	return report.StartProfiles(a.CPUProfile, a.MemProfile, a.MutexProfile)
}

// Engine returns the progress engine Start created, or nil without
// -progress and -debug-addr.
func (a *ArtifactFlags) Engine() *obs.Engine { return a.engine }

// Recorder returns the trace recorder Start attached, or nil without
// -trace.
func (a *ArtifactFlags) Recorder() *trace.Recorder { return a.rec }

// Done terminates the -progress status line.
func (a *ArtifactFlags) Done() {
	if a.status != nil {
		a.status.Done()
	}
}

// Write writes every requested artifact of s under the manifest m —
// metrics, critical path, flight recorder, then trace — and reports
// each on stderr. The manifest records what was simulated, never how
// the work was scheduled, so artifacts from any pool size compare
// byte for byte.
func (a *ArtifactFlags) Write(s *Session, m metrics.Manifest, stderr io.Writer) error {
	if a.Metrics != "" {
		art := s.Metrics().Export(m)
		if err := art.WriteFile(a.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: wrote %d metric series to %s\n", a.tool, len(art.Series), a.Metrics)
	}
	if a.CritPath != "" {
		art := critpath.Export(m, s.CritPathCells())
		if err := art.WriteFile(a.CritPath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: wrote %d critical-path iterations to %s\n", a.tool, len(art.Cells), a.CritPath)
	}
	if a.Timeseries != "" {
		art := timeseries.Export(m, s.TimeseriesCells())
		if err := art.WriteFile(a.Timeseries); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: wrote %d flight-recorder cells to %s\n", a.tool, len(art.Cells), a.Timeseries)
	}
	if a.rec != nil {
		if err := a.rec.WriteFile(a.Trace); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: wrote %d trace events (%d spans) to %s\n", a.tool, a.rec.Len(), a.rec.Spans(), a.Trace)
	}
	return nil
}
