package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/wafernet/fred/internal/metrics"
)

// Pass modes. A plain pass measures the end-to-end metrics with
// nothing attached; a profile pass adds CPU and allocation profiles;
// a count pass attaches the program's public counter registries.
const (
	modePlain   = "plain"
	modeProfile = "profile"
	modeCount   = "count"
)

// memProfileRate samples one allocation per this many bytes in profile
// passes: thousands of samples per pass, enough for per-package shares,
// while the sampling cost, which lands in the malloc bucket, stays
// small.
const memProfileRate = 64 << 10

// passRunner is one workload's pass, built by its constructor (the
// set-up that precedes the first call into the program).
type passRunner interface {
	// run performs the pass's fixed work, the part that is timed.
	run(out *passResult)
	// check compares the pass's simulated outputs with the references.
	check(ref *references, out *passResult)
	// recordRefs stores the pass's outputs as references, refusing
	// outputs of operations that failed.
	recordRefs(ref *references) error
	close()
}

type workloadDef struct {
	name string
	new  func(seed int64, pass int, mode string) (passRunner, error)
}

var workloads = []workloadDef{
	{"paper-all", newPaperAll},
	{"scaleout-grid", newScaleoutGrid},
	{"fredd-mix", newFreddMix},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passResult is what one pass reports to the parent, as one JSON line.
type passResult struct {
	Mode       string  `json:"mode"`
	WallS      float64 `json:"wall_s"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Jobs counts the pass's jobs; JobLatMS and JobClass give each
	// fredd job's latency and catalogue class.
	Jobs     int       `json:"jobs"`
	JobLatMS []float64 `json:"job_lat_ms,omitempty"`
	JobClass []string  `json:"job_class,omitempty"`

	// Spans sums the benchmark's timers around layer calls; Counters
	// holds the program's public counters.
	Spans    map[string]float64 `json:"spans,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`

	// CPU and Alloc attribute the pass's profiles to buckets (CPU
	// seconds and allocated bytes); the totals are the profiles' own.
	CPU        map[string]float64 `json:"cpu,omitempty"`
	CPUTotal   float64            `json:"cpu_total,omitempty"`
	Alloc      map[string]float64 `json:"alloc,omitempty"`
	AllocTotal float64            `json:"alloc_total,omitempty"`
}

// maxFailures bounds the failure messages a pass carries.
const maxFailures = 8

func (p *passResult) fail(format string, args ...interface{}) {
	p.Failed++
	if len(p.Failures) < maxFailures {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

func (p *passResult) span(name string, seconds float64) {
	if p.Spans == nil {
		p.Spans = map[string]float64{}
	}
	p.Spans[name] += seconds
}

func (p *passResult) addCounter(name string, v float64) {
	if p.Counters == nil {
		p.Counters = map[string]float64{}
	}
	p.Counters[name] += v
}

// counterSeries maps the program's metric series to layer counters.
var counterSeries = map[string]string{
	"train/iterations":           "training.iterations",
	"critpath/iterations":        "critpath.iterations",
	"net/flows_started":          "netsim.flows_started",
	"netsim/fill/recomputes":     "netsim.recomputes",
	"netsim/fill/fill_passes":    "netsim.fill_passes",
	"netsim/fill/domains_filled": "netsim.domains_filled",
	"netsim/fill/flows_filled":   "netsim.flows_filled",
}

// layerCounters extracts the layer counters of a fred-metrics artifact.
func layerCounters(art *metrics.Artifact) map[string]float64 {
	out := map[string]float64{}
	for _, s := range art.Series {
		if name, ok := counterSeries[s.Name]; ok {
			out[name] += s.Scalar()
		}
	}
	return out
}

func (p *passResult) countersFrom(art *metrics.Artifact) {
	for k, v := range layerCounters(art) {
		p.addCounter(k, v)
	}
}

// runChild executes one pass in this process: set up, announce
// readiness on stdout, run and measure the pass, check its outputs,
// and print the passResult as one JSON line.
func runChild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	pass := fs.Int("pass", 0, "pass index")
	mode := fs.String("mode", modePlain, "plain, profile or count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *mode == modeProfile {
		runtime.MemProfileRate = memProfileRate
	}
	runner, err := w.new(*seed, *pass, *mode)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")

	out := measurePass(runner, *mode)
	ref, err := loadReferences()
	if err != nil {
		runner.close()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runner.check(ref, &out)
	runner.close()
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measurePass runs the pass under the mode's instruments.
func measurePass(runner passRunner, mode string) passResult {
	out := passResult{Mode: mode}
	var before []allocRecord
	var cpuBuf bytes.Buffer
	if mode == modeProfile {
		runtime.GC()
		before = allocSnapshot()
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			out.fail("starting CPU profile: %v", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()

	runner.run(&out)

	out.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	out.Allocs = m1.Mallocs - m0.Mallocs
	out.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.GCCycles = m1.NumGC - m0.NumGC
	out.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	if mode == modeProfile {
		pprof.StopCPUProfile()
		prof, err := parseCPUProfile(cpuBuf.Bytes())
		if err != nil {
			out.fail("reading CPU profile: %v", err)
		} else {
			out.CPU, out.CPUTotal = prof.attribute()
		}
		runtime.GC()
		out.Alloc, out.AllocTotal = attributeAllocs(diffAllocs(allocSnapshot(), before))
	}
	return out
}
