// Command fredsim regenerates the tables and figures of the FRED
// paper's evaluation on the simulator.
//
// Usage:
//
//	fredsim <experiment> [-ab] [-csv] [-parallel N] [-trace out.json]
//	        [-linkstats] [-cpuprofile out.pprof]
//
// The experiments, in the order `fredsim all` runs them, are listed
// with a one-line description by the usage text (fredsim with no
// arguments); the list is generated from experiments.Studies.
//
// The experiment may also be named with -study (fredsim -study faults).
// A failing experiment cell no longer aborts the whole run: the other
// cells complete, the failure is reported, and fredsim exits non-zero.
//
// With -csv, tables are emitted as CSV instead of aligned text.
//
// Parallelism:
//
//	-parallel N       fan independent figure/table cells across N
//	                  workers (default 0 = GOMAXPROCS; 1 = sequential).
//	                  Each cell is a self-contained simulation, and rows
//	                  and tables merge back in paper order, so the
//	                  output is byte-identical at every N. A -trace run
//	                  is forced sequential: the trace file needs one
//	                  continuous build sequence.
//
// Observability:
//
//	-trace out.json   record a Chrome trace-event JSON of every
//	                  simulation the experiment runs (flow lifecycles,
//	                  per-link utilization counters, collective-op
//	                  spans); load it at https://ui.perfetto.dev or
//	                  summarize it with cmd/fredtrace
//	-linkstats        append per-training-run top-10 link hotspot
//	                  tables (honours -csv)
//	-metrics f.json   write a versioned fred-metrics artifact (run
//	                  manifest + every counter/gauge/histogram series:
//	                  flow counts, per-link utilization distributions,
//	                  training breakdowns, per-NPU attribution); compare
//	                  two artifacts with cmd/fredreport. Byte-identical
//	                  at every -parallel N.
//	-critpath f.json  write a versioned fred-critpath artifact: the
//	                  per-iteration causal critical path of every
//	                  training run (blame decomposition into compute /
//	                  comm-serialized / comm-contention / fault-recovery
//	                  / idle, dominant segments with binding links);
//	                  summarize it with fredtrace -critpath.
//	                  Byte-identical at every -parallel N.
//	-timeseries f     write a versioned fred-timeseries artifact: the
//	                  flight recorder's sampled load series (event-heap
//	                  depth, active flows, fill work, delivered bytes,
//	                  link utilization, cumulative critpath blame) per
//	                  simulation; summarize it with fredtrace
//	                  -timeseries. Byte-identical at every -parallel N.
//	-progress         live self-overwriting status line on stderr:
//	                  cells done/total, elapsed wall time, ETA
//	-debug-addr a     serve a debug HTTP endpoint on a (host:port):
//	                  /progress JSON, /progress/stream SSE,
//	                  /debug/vars expvar, /debug/pprof
//	-cpuprofile f     write a runtime/pprof CPU profile of the
//	                  simulator process itself
//	-memprofile f     write an end-of-run heap (allocs) profile
//	-mutexprofile f   write an end-of-run mutex-contention profile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected: argv
// without the program name, the two output streams, and the exit code
// as the return value. Exit conventions (shared by every fred binary):
// 0 success, 1 a run that started but failed, 2 bad usage — unknown
// flag, unknown experiment, or missing argument, always with usage on
// stderr.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, args := splitExperiment(args)
	if cmd == "" {
		usage(stderr)
		return 2
	}
	var studies []experiments.Study
	if cmd == "all" {
		studies = experiments.Studies
	} else if st, ok := experiments.LookupStudy(cmd); ok {
		studies = []experiments.Study{st}
	} else {
		fmt.Fprintf(stderr, "fredsim: unknown experiment %q (valid: %s)\n\n",
			cmd, strings.Join(studyNames(), " "))
		usage(stderr)
		return 2
	}
	includeAB := false
	csv := false
	parallel := 0
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	fs.BoolVar(&includeAB, "ab", false, "include Fred-A and Fred-B in fig10")
	fs.BoolVar(&csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&parallel, "parallel", 0, "worker-pool size for independent cells (0 = GOMAXPROCS, 1 = sequential)")
	artifacts := experiments.NewArtifactFlags(fs, "fredsim")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fredsim: unexpected argument %q\n\n", fs.Arg(0))
		usage(stderr)
		return 2
	}

	session := experiments.NewSession()
	session.SetParallel(parallel)
	stopProfiles, err := artifacts.Start(session, "fredsim "+cmd, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fredsim:", err)
		return 1
	}
	defer stopProfiles()

	emit := func(tbls ...*report.Table) {
		for _, t := range tbls {
			if csv {
				fmt.Fprint(stdout, t.CSV())
				fmt.Fprintln(stdout)
			} else {
				fmt.Fprintln(stdout, t)
			}
		}
	}
	for _, st := range studies {
		emit(st.Run(session, includeAB)...)
	}
	artifacts.Done()

	// A panicking or failing cell no longer kills the run: forEach
	// recovers it, the surviving cells complete, and the aggregate
	// surfaces here as a non-zero exit.
	exitCode := 0
	if err := session.Err(); err != nil {
		fmt.Fprintln(stderr, "fredsim:", err)
		exitCode = 1
	}

	if artifacts.LinkStats {
		emit(session.LinkStatsTables()...)
	}
	command := cmd
	if includeAB {
		command += " -ab"
	}
	if err := artifacts.Write(session, metrics.Manifest{Tool: "fredsim", Command: command}, stderr); err != nil {
		fmt.Fprintln(stderr, "fredsim:", err)
		return 1
	}
	return exitCode
}

// splitExperiment separates the experiment name from the flags that
// follow it. The name comes positionally (fredsim faults ...) or from
// the -study alias in any of the spellings the flag package accepts:
// -study x, -study=x, --study x, --study=x. It returns "" when no
// experiment is named.
func splitExperiment(args []string) (string, []string) {
	if len(args) == 0 {
		return "", nil
	}
	arg := args[0]
	if !strings.HasPrefix(arg, "-") {
		return arg, args[1:]
	}
	if strings.HasPrefix(arg, "--") {
		arg = arg[1:]
	}
	if name, ok := strings.CutPrefix(arg, "-study="); ok {
		return name, args[1:]
	}
	if arg == "-study" && len(args) >= 2 {
		return args[1], args[2:]
	}
	return "", args
}

// studyNames lists every experiment fredsim accepts, in `all` order.
func studyNames() []string {
	names := make([]string, 0, len(experiments.Studies)+1)
	for _, st := range experiments.Studies {
		names = append(names, st.Name)
	}
	return append(names, "all")
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: fredsim <experiment> [-ab] [-csv] [-parallel N] [-trace out.json]
               [-linkstats] [-metrics out.json] [-critpath out.json]
               [-timeseries out.json] [-progress] [-debug-addr host:port]
               [-cpuprofile out.pprof] [-memprofile out.pprof]
               [-mutexprofile out.pprof]
       fredsim -study <experiment> [flags]

experiments:`)
	for _, st := range experiments.Studies {
		fmt.Fprintf(w, "  %-11s %s\n", st.Name, st.Desc)
	}
	fmt.Fprintf(w, "  %-11s %s\n", "all", "every experiment above, in this order")
}
