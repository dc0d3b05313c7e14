// Command fredtrain simulates one 3D-parallel training iteration with
// every knob exposed: workload, fabric, strategy, minibatch, pipeline
// schedule and DP bucketing.
//
// Usage:
//
//	fredtrain [-model t17b] [-system Fred-D] [-mp 3 -dp 3 -pp 2]
//	          [-batch 16] [-schedule gpipe|1f1b] [-buckets 1] [-profile]
//	          [-trace out.json] [-linkstats] [-metrics out.json]
//	          [-critpath out.json] [-timeseries out.json] [-progress]
//	          [-debug-addr host:port] [-cpuprofile out.pprof]
//	          [-memprofile out.pprof] [-mutexprofile out.pprof]
//
// Models: resnet152, t17b, gpt3, t1t.
// Systems: Baseline, Fred-A, Fred-B, Fred-C, Fred-D.
//
// -trace records the iteration as Chrome trace-event JSON (flow
// lifecycles, link-utilization counters, one span per collective op)
// for Perfetto or cmd/fredtrace; -linkstats prints the top-10 link
// hotspots of the run; -metrics writes a versioned fred-metrics JSON
// artifact (run manifest, iteration breakdown, per-class comm profile,
// per-NPU time attribution, per-link utilization distributions) for
// cmd/fredreport; -critpath records the iteration's causal critical
// path and writes a fred-critpath JSON artifact (blame decomposition
// into compute / comm-serialized / comm-contention / fault-recovery /
// idle, dominant segments with binding links) for fredtrace -critpath;
// -timeseries writes a fred-timeseries JSON artifact (the flight
// recorder's sampled load series) for fredtrace -timeseries; -progress
// and -debug-addr expose live wall-clock progress; -cpuprofile /
// -memprofile / -mutexprofile profile the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	fredapi "github.com/wafernet/fred"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/training"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected. Exit
// conventions (shared by every fred binary): 0 success, 1 a run that
// started but failed, 2 bad usage — unknown flag, unknown model /
// system / schedule, or unexpected argument, always with usage on
// stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fredtrain [-model t17b] [-system Fred-D] [-schedule gpipe] [flags]")
		fs.PrintDefaults()
	}
	modelName := fs.String("model", "t17b", "workload: resnet152, t17b, gpt3, t1t")
	system := fs.String("system", "Fred-D", "fabric: Baseline, Fred-A..Fred-D")
	mp := fs.Int("mp", 0, "model-parallel size (0: Table 6 default)")
	dp := fs.Int("dp", 0, "data-parallel size")
	pp := fs.Int("pp", 0, "pipeline size")
	batch := fs.Int("batch", 16, "samples per DP replica")
	schedule := fs.String("schedule", "gpipe", "pipeline schedule: gpipe or 1f1b")
	buckets := fs.Int("buckets", 1, "DP gradient buckets (overlap granularity)")
	profile := fs.Bool("profile", false, "print the per-class communication profile")
	artifacts := experiments.NewArtifactFlags(fs, "fredtrain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fredtrain: unexpected argument %q\n\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	m, err := experiments.LookupModel(strings.ToLower(*modelName))
	if err != nil {
		fmt.Fprintf(stderr, "fredtrain: unknown model %q (%s)\n", *modelName, experiments.ModelNames)
		fs.Usage()
		return 2
	}
	strat := fredapi.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
	if *mp > 0 {
		strat.MP = *mp
	}
	if *dp > 0 {
		strat.DP = *dp
	}
	if *pp > 0 {
		strat.PP = *pp
	}
	sched, err := lookupSchedule(*schedule)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		fs.Usage()
		return 2
	}
	sys, err := experiments.LookupSystem(*system)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		fs.Usage()
		return 2
	}

	// The session wires the observability hooks (tracer namespace,
	// scheduler counter, link telemetry, flight recorder) into the
	// build and records the run's artifacts.
	session := experiments.NewSession()
	stopProfiles, err := artifacts.Start(session, fmt.Sprintf("fredtrain %s %s", m.Name, sys), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		return 1
	}
	defer stopProfiles()
	// fredtrain is one simulation: a single-cell "study" driven
	// directly rather than through the session's forEach.
	engine := artifacts.Engine()
	var tok *obs.Cell
	if engine != nil {
		cell := m.Name + " on " + *system
		engine.StudyStarted(cell, 1)
		tok = engine.CellStarted(cell, 0)
		session.ObserveCell(tok)
	}
	r, err := session.Train(sys, training.Config{
		Model:               m,
		Strategy:            strat,
		MinibatchPerReplica: *batch,
		GradBuckets:         *buckets,
		Schedule:            sched,
	})
	if tok != nil {
		engine.CellFinished(tok, err != nil)
		artifacts.Done()
	}
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		return 1
	}
	if rec := artifacts.Recorder(); rec != nil {
		rec.Span("train", "iteration", 0, r.Total,
			trace.String("model", m.Name), trace.String("system", *system))
	}

	fmt.Fprintf(stdout, "%s on %s, %v, %d samples/replica, %s schedule\n",
		m.Name, *system, strat, *batch, sched)
	fmt.Fprintf(stdout, "iteration: %s\n", r)
	fmt.Fprintf(stdout, "per sample: %.4g ms", r.PerSample*1e3)
	if r.ActivationRecompute {
		fmt.Fprintf(stdout, "   (activation recomputation active)")
	}
	fmt.Fprintln(stdout)
	if *profile {
		fmt.Fprintf(stdout, "\ncommunication profile:\n%s", r.Comm)
	}
	if artifacts.CritPath != "" {
		if r.CritPath == nil {
			fmt.Fprintln(stderr, "fredtrain: no critical path recorded")
			return 1
		}
		it := r.CritPath
		fmt.Fprintf(stdout, "critical path: compute %.4gs  comm-ser %.4gs  comm-cont %.4gs  fault %.4gs  idle %.4gs\n",
			it.Compute, it.CommSerial, it.CommContention, it.FaultRecovery, it.Idle)
	}
	for _, t := range session.LinkStatsTables() {
		fmt.Fprintf(stdout, "\n%s", t)
	}
	manifest := metrics.Manifest{
		Tool:            "fredtrain",
		Workload:        m.Name,
		System:          *system,
		Strategy:        strat.String(),
		BatchPerReplica: *batch,
		Schedule:        sched.String(),
	}
	if err := artifacts.Write(session, manifest, stderr); err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		return 1
	}
	return 0
}

func lookupSchedule(name string) (training.PipelineSchedule, error) {
	switch strings.ToLower(name) {
	case "gpipe":
		return training.ScheduleGPipe, nil
	case "1f1b":
		return training.Schedule1F1B, nil
	}
	return 0, fmt.Errorf("unknown schedule %q (gpipe, 1f1b)", name)
}
