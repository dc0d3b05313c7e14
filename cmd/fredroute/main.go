// Command fredroute explores FRED switch routing: it builds a
// Fred_m(P) interconnect, routes a set of concurrent collective flows
// with the conflict-graph protocol of Section 5.2, prints the
// resulting µswitch configuration (the highlighted R/D/RD features of
// Figure 7(h)), and verifies the data plane.
//
// Usage:
//
//	fredroute [-m 3] [-p 8] flow [flow ...]
//
// Flow syntax:
//
//	allreduce:3,4,5      all-reduce among ports 3,4,5
//	reduce:1,2>5         reduce ports 1,2 into port 5
//	multicast:0>4,5      multicast port 0 to ports 4,5
//	unicast:0>7          unicast port 0 to port 7
//
// With no flows, the Figure 7(h) example is routed: two concurrent
// all-reduces on a Fred_2(8).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	fredapi "github.com/wafernet/fred"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected. Exit
// conventions (shared by every fred binary): 0 success, 1 a routing
// conflict or verification failure, 2 bad usage — unknown flag or
// malformed flow syntax, always with usage on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredroute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: fredroute [-m 3] [-p 8] [-dot out.dot] [flow ...]
flows: allreduce:3,4,5  reduce:1,2>5  multicast:0>4,5  unicast:0>7`)
		fs.PrintDefaults()
	}
	m := fs.Int("m", 2, "middle-stage subnetworks (colors)")
	p := fs.Int("p", 8, "switch port count")
	dotPath := fs.String("dot", "", "write a Graphviz rendering of the routed switch to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *m < 2 {
		fmt.Fprintf(stderr, "fredroute: -m %d out of range (need ≥ 2 middle-stage subnetworks)\n", *m)
		fs.Usage()
		return 2
	}
	if *p < 2 {
		fmt.Fprintf(stderr, "fredroute: -p %d out of range (need ≥ 2 switch ports)\n", *p)
		fs.Usage()
		return 2
	}

	flows, err := parseFlows(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fredroute:", err)
		fs.Usage()
		return 2
	}
	if len(flows) == 0 {
		fmt.Fprintln(stdout, "routing the Figure 7(h) example: two all-reduces on Fred_2(8)")
		flows = []fredapi.Flow{
			fredapi.AllReduce([]int{0, 1, 2}),
			fredapi.AllReduce([]int{3, 4, 5}),
		}
	}

	sw := fredapi.NewSwitch(*m, *p)
	fmt.Fprintf(stdout, "Fred_%d(%d): %d µswitch elements\n\n", *m, *p, sw.MicroSwitches())
	for i, f := range flows {
		fmt.Fprintf(stdout, "flow %d: %v\n", i, f)
	}
	plan, err := sw.Route(flows)
	if err != nil {
		var conflict *fredapi.ConflictError
		if errors.As(err, &conflict) {
			fmt.Fprintf(stdout, "\nROUTING CONFLICT: %v\n", conflict)
			fmt.Fprintln(stdout, "options (Section 5.3): block a flow, raise -m, decompose to unicast, or re-place devices")
			return 1
		}
		fmt.Fprintln(stderr, "fredroute:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nrouted: %d reductions, %d distributions active\n\n",
		plan.ActiveReductions(), plan.ActiveDistributions())
	fmt.Fprint(stdout, plan)
	if *dotPath != "" {
		if err := writeDOT(*dotPath, sw, plan); err != nil {
			fmt.Fprintln(stderr, "fredroute:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *dotPath)
	}
	if err := plan.Verify(); err != nil {
		fmt.Fprintln(stderr, "\ndata-plane verification FAILED:", err)
		return 1
	}
	fmt.Fprintln(stdout, "\ndata-plane verification: every output port receives the reduction of exactly its flow's inputs ✓")
	return 0
}

func parseFlows(args []string) ([]fredapi.Flow, error) {
	var flows []fredapi.Flow
	for _, a := range args {
		kind, rest, ok := strings.Cut(a, ":")
		if !ok {
			return nil, fmt.Errorf("bad flow %q (want kind:ports)", a)
		}
		switch kind {
		case "allreduce":
			ports, err := parsePorts(rest)
			if err != nil {
				return nil, err
			}
			flows = append(flows, fredapi.AllReduce(ports))
		case "reduce", "multicast", "unicast":
			left, right, ok := strings.Cut(rest, ">")
			if !ok {
				return nil, fmt.Errorf("bad flow %q (want in>out)", a)
			}
			ins, err := parsePorts(left)
			if err != nil {
				return nil, err
			}
			outs, err := parsePorts(right)
			if err != nil {
				return nil, err
			}
			flows = append(flows, fredapi.Flow{IPs: ins, OPs: outs, Label: kind})
		default:
			return nil, fmt.Errorf("unknown flow kind %q", kind)
		}
	}
	return flows, nil
}

func parsePorts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad port %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeDOT renders the routed switch to a Graphviz file.
func writeDOT(path string, sw *fredapi.Switch, plan *fredapi.RoutingPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sw.WriteDOT(f, plan)
}
