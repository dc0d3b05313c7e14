// Package fred implements the FRED switch micro-architecture of
// Section 4 of the paper: tiny µswitches with reduction (R),
// distribution (D) or both (RD) capabilities, recursively composed
// into a Clos-like Fred_m(P) interconnect; the flow abstraction of
// Section 5.1; the conflict-graph routing protocol of Section 5.2 with
// the conflict cases of Section 5.3; and a data-plane evaluator that
// pushes values through a configured interconnect to verify that
// routed collectives compute what they claim.
//
// A Fred_m(P) interconnect follows the (m, n=2, r) Clos construction:
// r input µswitches of 2×m, m middle-stage subnetworks built
// recursively, and r output µswitches of m×2. Even port counts use
// P = 2r with middle subnetworks Fred_m(r); odd port counts use
// P = 2r+1, attach the last port to every middle subnetwork through a
// demux/mux pair, and use middle subnetworks Fred_m(r+1), after
// Chang & Melhem's arbitrary-size Benes networks. The recursion
// bottoms out at Fred_m(2), a single RD-µswitch.
package fred

import (
	"fmt"
	"sort"
)

// ElementKind identifies the role of a µswitch element in the
// interconnect.
type ElementKind int

// Element kinds.
const (
	// KindInput is an input-stage µswitch: 2 inputs, m outputs, with
	// the reduction feature (R-µswitch generalised to m outputs).
	KindInput ElementKind = iota
	// KindOutput is an output-stage µswitch: m inputs, 2 outputs, with
	// the distribution feature (D-µswitch generalised to m inputs).
	KindOutput
	// KindBase is the 2×2 RD-µswitch terminating the recursion.
	KindBase
	// KindDemux attaches the odd last input port to all middle
	// subnetworks (1 input, m outputs, no compute).
	KindDemux
	// KindMux attaches all middle subnetworks to the odd last output
	// port (m inputs, 1 output, no compute).
	KindMux
)

func (k ElementKind) String() string {
	switch k {
	case KindInput:
		return "R-µswitch"
	case KindOutput:
		return "D-µswitch"
	case KindBase:
		return "RD-µswitch"
	case KindDemux:
		return "demux"
	case KindMux:
		return "mux"
	}
	return fmt.Sprintf("ElementKind(%d)", int(k))
}

// CanReduce reports whether elements of this kind may combine two or
// more inputs into one stream.
func (k ElementKind) CanReduce() bool { return k == KindInput || k == KindBase }

// CanDistribute reports whether elements of this kind may copy one
// stream to two or more outputs.
func (k ElementKind) CanDistribute() bool { return k == KindOutput || k == KindBase }

// Wire is the destination of an element's output port: either another
// element's input port (Elem ≥ 0) or an external output of the whole
// interconnect (Elem < 0, Ext is the external port index).
type Wire struct {
	Elem int
	Port int
	Ext  int
}

// Element is one µswitch (or mux/demux) instance.
type Element struct {
	ID    int
	Kind  ElementKind
	In    int    // input port count
	Out   int    // output port count
	Level int    // recursion depth (0 = outermost stage)
	Label string // human-readable position, e.g. "L1.in[2]"

	// OutWire[p] is where output port p leads.
	OutWire []Wire
}

// Connection is one configured pass through an element: the streams on
// the In ports are reduced into one stream, which is copied to every
// Out port. |In| > 1 requires reduce capability; |Out| > 1 requires
// distribute capability. Port indices are local to the element. Plans
// from Route share their In and Out lists read-only.
type Connection struct {
	In  []int
	Out []int
	// Flow records which routed flow this connection serves (diagnostic).
	Flow int
}

// Reduces reports whether the connection activates the reduction
// feature (highlighted "R" in Figure 7(h)).
func (c Connection) Reduces() bool { return len(c.In) > 1 }

// Distributes reports whether the connection activates the
// distribution feature (highlighted "D" in Figure 7(h)).
func (c Connection) Distributes() bool { return len(c.Out) > 1 }

// validateConnections checks that a set of connections is legal on an
// element: ports in range, input ports disjoint, output ports
// disjoint, and capabilities respected.
func validateConnections(e *Element, conns []Connection) error {
	inUsed := make(map[int]bool)
	outUsed := make(map[int]bool)
	for _, c := range conns {
		if len(c.In) == 0 || len(c.Out) == 0 {
			return fmt.Errorf("fred: %s: empty connection", e.Label)
		}
		if c.Reduces() && !e.Kind.CanReduce() {
			return fmt.Errorf("fred: %s (%s) cannot reduce", e.Label, e.Kind)
		}
		if c.Distributes() && !e.Kind.CanDistribute() {
			return fmt.Errorf("fred: %s (%s) cannot distribute", e.Label, e.Kind)
		}
		for _, p := range c.In {
			if p < 0 || p >= e.In {
				return fmt.Errorf("fred: %s: input port %d out of range", e.Label, p)
			}
			if inUsed[p] {
				return fmt.Errorf("fred: %s: input port %d used by two connections", e.Label, p)
			}
			inUsed[p] = true
		}
		for _, p := range c.Out {
			if p < 0 || p >= e.Out {
				return fmt.Errorf("fred: %s: output port %d out of range", e.Label, p)
			}
			if outUsed[p] {
				return fmt.Errorf("fred: %s: output port %d used by two connections", e.Label, p)
			}
			outUsed[p] = true
		}
	}
	return nil
}

// sortedCopy returns a sorted copy of ports, for canonical output.
func sortedCopy(ports []int) []int {
	out := append([]int(nil), ports...)
	sort.Ints(out)
	return out
}
