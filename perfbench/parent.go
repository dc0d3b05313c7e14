package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minPasses is the fewest passes a run measures, however long
	// each takes, so every median has samples on both sides.
	minPasses = 3
	// passTimeout bounds one pass process, so that a pass that hangs
	// fails the run instead of stalling it.
	passTimeout = 120 * time.Second
)

// passSample is one pass as seen from the parent: the child's report
// plus what only the parent can measure from outside the process.
type passSample struct {
	passResult
	SetupS   float64
	MaxRSSMB float64
}

// runPass starts one pass process and collects its report. Set-up time
// runs from process start until the child announces it is ready.
func runPass(exe, workload string, seed int64, pass int, mode string, stderr io.Writer) (passSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child",
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-pass", strconv.Itoa(pass), "-mode", mode)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return passSample{}, err
	}
	var s passSample
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return passSample{}, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var lines []string
	for sc.Scan() {
		if len(lines) == 0 {
			s.SetupS = time.Since(start).Seconds()
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return s, fmt.Errorf("pass %d: reading report: %w", pass, scanErr)
	}
	if waitErr != nil {
		return s, fmt.Errorf("pass %d (%s): %w", pass, mode, waitErr)
	}
	if len(lines) != 2 || lines[0] != "ready" {
		return s, fmt.Errorf("pass %d: unexpected report %q", pass, lines)
	}
	if err := json.Unmarshal([]byte(lines[1]), &s.passResult); err != nil {
		return s, fmt.Errorf("pass %d: decoding report: %w", pass, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// schedule returns the mode of the i-th pass of a run. An untraced run
// is all plain passes; a traced run starts with one count pass, then
// alternates plain and profile passes so the tracing overhead compares
// like with like.
func schedule(traced bool, i int) string {
	switch {
	case !traced:
		return modePlain
	case i == 0:
		return modeCount
	case i%2 == 1:
		return modeProfile
	}
	return modePlain
}

// runPasses measures passes until the time budget is spent and every
// mode of the schedule has at least minPasses samples. A first,
// discarded pass warms the host (the freshly built binary's pages,
// the CPU's caches) so that it does not pose as the run's slowest job.
func runPasses(exe, workload string, seed int64, seconds float64, traced bool, stderr io.Writer) ([]passSample, error) {
	if _, err := runPass(exe, workload, seed, -1, modePlain, stderr); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var out []passSample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	need := minPasses
	if traced {
		need = 1 + 2*minPasses
	}
	for i := 0; i < need || time.Now().Before(deadline); i++ {
		s, err := runPass(exe, workload, seed, i, schedule(traced, i), stderr)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean suits per-pass peak memory: it takes two or three levels, set
// by where garbage collections fall against the study order, and a
// median would jump between them.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func pick(samples []passSample, mode string, f func(passSample) float64) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.Mode == mode {
			xs = append(xs, f(s))
		}
	}
	return xs
}

// endToEndMetrics summarises the plain passes of an untraced run.
func endToEndMetrics(samples []passSample) map[string]float64 {
	plain := func(f func(passSample) float64) []float64 { return pick(samples, modePlain, f) }
	m := map[string]float64{
		"wall_s":            median(plain(func(s passSample) float64 { return s.WallS })),
		"setup_s":           median(plain(func(s passSample) float64 { return s.SetupS })),
		"peak_rss_mb":       mean(plain(func(s passSample) float64 { return s.MaxRSSMB })),
		"allocs_per_pass":   median(plain(func(s passSample) float64 { return float64(s.Allocs) })),
		"alloc_mb_per_pass": median(plain(func(s passSample) float64 { return float64(s.AllocBytes) / (1 << 20) })),
	}
	jobs, busy := 0, 0.0
	for _, s := range samples {
		if s.Mode == modePlain {
			jobs += s.Jobs
			busy += s.WallS
		}
	}
	lat := jobLatencies(samples)
	m["jobs_per_s"] = float64(jobs) / busy
	m["job_p50_ms"] = quantile(lat, 0.50)
	m["job_p99_ms"] = quantile(lat, tailQuantile(len(lat)))
	return m
}

// jobLatencies lists the job latencies of the plain passes, in ms: each
// fredd request, or each pass of a batch workload, where the pass is
// the job.
func jobLatencies(samples []passSample) []float64 {
	var lat []float64
	for _, s := range samples {
		switch {
		case s.Mode != modePlain:
		case len(s.JobLatMS) > 0:
			lat = append(lat, s.JobLatMS...)
		default:
			lat = append(lat, s.WallS*1000)
		}
	}
	return lat
}

// tailQuantile is the quantile reported as job_p99_ms for n samples:
// the 99th percentile when at least ten samples lie beyond it, else the
// highest percentile that has ten beyond it (never below the median).
// A batch workload's few dozen passes cannot support a 99th percentile;
// its maximum would only measure the host's worst moment.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// perLayerMetrics summarises a traced run: spans and runtime counters
// from its plain passes, profiles from its profile passes, program
// counters from whichever passes reported them.
func perLayerMetrics(samples []passSample) (map[string]float64, error) {
	m := map[string]float64{}
	declared := map[string]bool{}
	for _, d := range perLayer() {
		m[d.Name] = 0
		declared[d.Name] = true
	}
	plain := func(f func(passSample) float64) []float64 { return pick(samples, modePlain, f) }
	spans := map[string]bool{}
	counters := map[string]bool{}
	for _, s := range samples {
		for k := range s.Spans {
			spans[k] = true
		}
		for k := range s.Counters {
			counters[k] = true
		}
	}
	for k := range spans {
		m[k] = median(plain(func(s passSample) float64 { return s.Spans[k] }))
	}
	for k := range counters {
		var xs []float64
		for _, s := range samples {
			if v, ok := s.Counters[k]; ok {
				xs = append(xs, v)
			}
		}
		m[k] = median(xs)
	}
	if m["netsim.recomputes"] > 0 {
		m["netsim.fill_useful"] = m["netsim.fill_passes"] / m["netsim.recomputes"]
	}
	if counters["sim.events"] {
		m["sim.events_per_s"] = m["sim.events"] / m["sim.run_s"]
	} else {
		m["sim.events"], m["sim.events_per_s"] = -1, -1
	}
	delete(m, "sim.run_s")
	m["gc.cycles"] = median(plain(func(s passSample) float64 { return float64(s.GCCycles) }))
	m["gc.pause_ms"] = median(plain(func(s passSample) float64 { return float64(s.GCPauseNs) / 1e6 }))

	// Profile buckets: the mean per profile pass.
	var nProf float64
	cpu, alloc := map[string]float64{}, map[string]float64{}
	var cpuTotal, allocTotal float64
	for _, s := range samples {
		if s.Mode != modeProfile {
			continue
		}
		nProf++
		for k, v := range s.CPU {
			cpu[k] += v
		}
		for k, v := range s.Alloc {
			alloc[k] += v
		}
		cpuTotal += s.CPUTotal
		allocTotal += s.AllocTotal
	}
	if nProf == 0 {
		return nil, errors.New("traced run has no profile pass")
	}
	if err := checkBuckets("CPU", cpu, cpuTotal); err != nil {
		return nil, err
	}
	if err := checkBuckets("allocation", alloc, allocTotal); err != nil {
		return nil, err
	}
	for k, v := range cpu {
		if _, ok := m[k+".cpu_s"]; !ok {
			k = bucketOther
		}
		m[k+".cpu_s"] += v / nProf
	}
	for k, v := range alloc {
		if _, ok := m[k+".alloc_mb"]; !ok {
			k = bucketOther
		}
		m[k+".alloc_mb"] += v / nProf / (1 << 20)
	}
	m["profile.cpu_s"] = cpuTotal / nProf
	m["profile.alloc_mb"] = allocTotal / nProf / (1 << 20)

	untraced := median(plain(func(s passSample) float64 { return s.WallS }))
	traced := median(pick(samples, modeProfile, func(s passSample) float64 { return s.WallS }))
	m["trace.overhead"] = traced / untraced
	for k := range m {
		if !declared[k] {
			return nil, fmt.Errorf("per-layer metric %s is not declared", k)
		}
	}
	return m, nil
}

// checkBuckets verifies that attribution lost nothing: the buckets
// must sum to the profile's own total.
func checkBuckets(kind string, buckets map[string]float64, total float64) error {
	sum := 0.0
	for _, v := range buckets {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		return fmt.Errorf("%s buckets sum to %g, profile total %g", kind, sum, total)
	}
	return nil
}

// printSummary prints a human summary to w: the failure share and any
// failures, the sample count behind the job percentiles, and each fredd
// class's latency.
func printSummary(w io.Writer, workload string, samples []passSample, attempted, failed int) {
	fmt.Fprintf(w, "perfbench: %s: %d passes, failed_share %g (%d of %d)\n",
		workload, len(samples), float64(failed)/float64(attempted), failed, attempted)
	byClass := map[string][]float64{}
	for _, s := range samples {
		for _, f := range s.Failures {
			fmt.Fprintf(w, "perfbench: FAIL %s\n", f)
		}
		if s.Mode == modePlain {
			for i, l := range s.JobLatMS {
				byClass[s.JobClass[i]] = append(byClass[s.JobClass[i]], l)
			}
		}
	}
	n := len(jobLatencies(samples))
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "perfbench: %d job samples; job_p99_ms is their %g quantile\n", n, tailQuantile(n))
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := byClass[c]
		fmt.Fprintf(w, "perfbench:   %-10s share %.2f  p50 %.2fms  p99 %.2fms  max %.2fms\n",
			c, float64(len(xs))/float64(n), quantile(xs, 0.5), quantile(xs, 0.99), quantile(xs, 1))
	}
}

// runBench is the benchmark proper: measure passes for the time
// budget, check them, and print the result line.
func runBench(workload string, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) error {
	if _, ok := lookupWorkload(workload); !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (valid: %s)", workload, strings.Join(names, ", "))
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	samples, err := runPasses(exe, workload, seed, seconds, traced, stderr)
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range samples {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
	}
	res.Correct = res.Failed == 0
	printSummary(stderr, workload, samples, res.Attempted, res.Failed)

	decls := endToEnd
	values := endToEndMetrics(samples)
	if traced {
		decls = perLayer()
		if values, err = perLayerMetrics(samples); err != nil {
			return err
		}
	}
	for _, d := range decls {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
