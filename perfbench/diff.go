package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// layerDelta is one per-layer metric's change between two results.
type layerDelta struct {
	decl metricDecl
	a, b float64
}

func (d layerDelta) delta() float64 { return d.b - d.a }

// rel is the change as a share of the first value; a metric appearing
// from zero counts as an infinite change.
func (d layerDelta) rel() float64 {
	switch {
	case d.a == d.b:
		return 0
	case d.a == 0:
		return math.Inf(1)
	}
	return (d.b - d.a) / math.Abs(d.a)
}

// readResult reads a benchmark result: the last non-empty line of the
// file, so the benchmark's whole standard output can be saved as is.
func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// layerDeltas pairs the per-layer metrics of two results and ranks
// them: CPU buckets by the seconds they moved, everything else by its
// relative change. Metrics that did not move, or that one side could
// not observe (-1), are left out.
func layerDeltas(a, b *result) (cpu, other []layerDelta) {
	for _, d := range perLayer() {
		va, okA := a.Metrics[d.Name]
		vb, okB := b.Metrics[d.Name]
		if !okA || !okB || va.Value < 0 || vb.Value < 0 || va.Value == vb.Value {
			continue
		}
		ld := layerDelta{decl: d, a: va.Value, b: vb.Value}
		if strings.HasSuffix(d.Name, ".cpu_s") && d.Name != "profile.cpu_s" {
			cpu = append(cpu, ld)
		} else {
			other = append(other, ld)
		}
	}
	sort.SliceStable(cpu, func(i, j int) bool {
		return math.Abs(cpu[i].delta()) > math.Abs(cpu[j].delta())
	})
	sort.SliceStable(other, func(i, j int) bool {
		return math.Abs(other[i].rel()) > math.Abs(other[j].rel())
	})
	return cpu, other
}

// runDiff prints the ranked per-layer deltas of two traced results.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench diff <base.json> <new.json>")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cpu, other := layerDeltas(a, b)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	for i, rows := range [][]layerDelta{cpu, other} {
		title := "CPU by layer (s per pass)"
		if i == 1 {
			fmt.Fprintln(tw)
			title = "other per-layer metrics"
		}
		fmt.Fprintf(tw, "%s\tbase\tnew\tdelta\tchange\tshould move\ton\tflat on\n", title)
		for _, d := range rows {
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.4g\t%s\t%s\t%s\t%s\n",
				d.decl.Name, d.a, d.b, d.delta(), pct(d.rel()), d.decl.Target, d.decl.On, d.decl.Flat)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func pct(r float64) string {
	if math.IsInf(r, 0) {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*r)
}
