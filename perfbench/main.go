// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public Go entry points for a time
// budget, checks every simulated output against committed references,
// and prints one JSON result line:
//
//	perfbench --workload paper-all --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	paper-all      every study of `fredsim all` in one session at
//	               parallel 1, study order shuffled by the seed
//	scaleout-grid  a 16×16 grid of Fred-D wafers (5,120 NPUs): one
//	               hierarchical and one naive 10 GB all-reduce per pass
//	fredd-mix      an in-process fredd server with 2 workers, driven by
//	               2 closed-loop clients over loopback
//
// Each pass runs in a fresh process, so every pass starts cold, as a
// user's process does. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics: benchmark-side spans around
// layer calls, the program's public counters, and CPU and allocation
// profiles attributed to internal/<pkg> buckets.
//
// Other commands:
//
//	perfbench diff a.json b.json   rank per-layer deltas of two traced results
//	perfbench refs [-o file]       regenerate the committed references
//
// run.sh builds the command inside the checkout and runs it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument. Exit codes: 0 success, 1 a
// failed run, 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return runChild(args[1:], stdout, stderr)
		case "diff":
			return runDiff(args[1:], stdout, stderr)
		case "refs":
			return runWriteRefs(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-all, scaleout-grid or fredd-mix")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs (order and mix)")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *workload == "" || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	if err := runBench(*workload, *seed, *seconds, *traceFlag == 1, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
