package fred

import (
	"fmt"
	"sort"
	"strings"
)

// ConflictError reports that the conflict graph at some recursion
// level could not be colored with m colors (Section 5.3, Figure 7(j)).
type ConflictError struct {
	// Level is the recursion depth at which coloring failed (0 is the
	// outermost input/output stage).
	Level int
	// Flows are the original flow indices involved at that level.
	Flows []int
	// M is the number of available colors (middle subnetworks).
	M int
	// FailedMiddles counts middle subnetworks out of service at the
	// failing level (see FailElement); the palette really had
	// M − FailedMiddles colors.
	FailedMiddles int
}

func (e *ConflictError) Error() string {
	if e.FailedMiddles > 0 {
		return fmt.Sprintf("fred: routing conflict at level %d: flows %v cannot be %d-colored (%d of %d middles failed)",
			e.Level, e.Flows, e.M-e.FailedMiddles, e.FailedMiddles, e.M)
	}
	return fmt.Sprintf("fred: routing conflict at level %d: flows %v cannot be %d-colored",
		e.Level, e.Flows, e.M)
}

// Plan is a complete routing of a set of flows through an
// interconnect: the configuration of every element plus the
// middle-stage assignment decisions taken along the way.
type Plan struct {
	ic     *Interconnect
	flows  []Flow
	config map[int][]Connection // element ID → connections

	// Assignments records, per recursion level, each flow's chosen
	// middle subnetwork, in the form "level/path → flow → color".
	Assignments []Assignment
}

// Assignment records one middle-stage choice for one flow.
type Assignment struct {
	Level int
	Path  string // e.g. "mid[1]." prefixes identify the subnetwork
	Flow  int    // index into the routed flow slice
	Color int    // chosen middle subnetwork
}

// Flows returns the flows this plan routes.
func (p *Plan) Flows() []Flow { return p.flows }

// ActiveReductions counts connections with the reduction feature
// activated (the highlighted R/RD µswitches of Figure 7(h)).
func (p *Plan) ActiveReductions() int {
	n := 0
	for _, conns := range p.config {
		for _, c := range conns {
			if c.Reduces() {
				n++
			}
		}
	}
	return n
}

// ActiveDistributions counts connections with the distribution feature
// activated.
func (p *Plan) ActiveDistributions() int {
	n := 0
	for _, conns := range p.config {
		for _, c := range conns {
			if c.Distributes() {
				n++
			}
		}
	}
	return n
}

// String renders the plan's per-element configuration, for debugging
// and the routing-explorer CLI.
func (p *Plan) String() string {
	var b strings.Builder
	ids := make([]int, 0, len(p.config))
	for id := range p.config {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := p.ic.element(id)
		for _, c := range p.config[id] {
			feat := ""
			if c.Reduces() && c.Distributes() {
				feat = " [RD]"
			} else if c.Reduces() {
				feat = " [R]"
			} else if c.Distributes() {
				feat = " [D]"
			}
			fmt.Fprintf(&b, "%-20s %v -> %v flow=%d%s\n", e.Label, sortedCopy(c.In), sortedCopy(c.Out), c.Flow, feat)
		}
	}
	return b.String()
}

// localFlow is a flow projected into one recursion level: the ports
// are local to the sub-interconnect, id tracks the original flow.
type localFlow struct {
	id       int
	ips, ops []int
}

// routeScratch is one recursion level's working set. Route keeps one
// per level on the interconnect and reuses it across calls, so a warm
// Route allocates little beyond the Plan it returns. A level's scratch
// is live until its last middle subnetwork has been routed; deeper
// levels use their own.
type routeScratch struct {
	adj     [][]bool
	adjFlat []bool
	// inMask[i*r+s] holds flow i's local ports on input µswitch s as
	// bits (bit p for port p); outMask the same for output µswitches.
	inMask, outMask []uint8
	oddIn, oddOut   []bool
	sub             [][]localFlow
	// ports backs the projected sub-flows' port lists.
	ports []int
}

// portSets maps a µswitch port mask to its sorted port list. Plans
// share these slices read-only, as they share colorPorts.
var portSets = [4][]int{nil, {0}, {1}, {0, 1}}

// portSet returns the shared sorted list of base-µswitch ports.
func portSet(ports []int) []int {
	mask := 0
	for _, p := range ports {
		mask |= 1 << p
	}
	return portSets[mask]
}

// colorPort returns the shared one-element port list {c}.
func (ic *Interconnect) colorPort(c int) []int { return ic.colorPorts[c : c+1 : c+1] }

// reuse returns s resized to n zero values, keeping its backing array
// when it is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// scratchAt returns the reused working set of recursion level level.
func (ic *Interconnect) scratchAt(level int) *routeScratch {
	for len(ic.scratch) <= level {
		ic.scratch = append(ic.scratch, &routeScratch{})
	}
	return ic.scratch[level]
}

// Route routes the given flows concurrently through the interconnect
// (Section 5.2). It returns a *ConflictError if the flows cannot all
// be routed at once — the routing-conflict condition of Section 5.3.
func (ic *Interconnect) Route(flows []Flow) (*Plan, error) {
	if err := validateFlows(ic.p, flows); err != nil {
		return nil, err
	}
	plan := &Plan{ic: ic, flows: flows, config: make(map[int][]Connection)}
	local := reuse(ic.rootFlows, len(flows))
	ports := ic.rootPorts[:0]
	for i, f := range flows {
		ips := len(ports)
		ports = append(ports, f.IPs...)
		ops := len(ports)
		ports = append(ports, f.OPs...)
		local[i] = localFlow{id: i, ips: ports[ips:ops:ops], ops: ports[ops:len(ports):len(ports)]}
		sort.Ints(local[i].ips)
		sort.Ints(local[i].ops)
	}
	ic.rootFlows, ic.rootPorts = local, ports
	if err := ic.routeStage(ic.root, local, plan, 0); err != nil {
		return nil, err
	}
	// Validate the produced configuration element by element.
	for id, conns := range plan.config {
		if err := validateConnections(ic.element(id), conns); err != nil {
			return nil, fmt.Errorf("fred: internal error: %w", err)
		}
	}
	return plan, nil
}

// MustRoute is Route but panics on error, for examples and tests of
// known-routable patterns.
func (ic *Interconnect) MustRoute(flows []Flow) *Plan {
	p, err := ic.Route(flows)
	if err != nil {
		panic(err)
	}
	return p
}

func addConn(plan *Plan, e *Element, c Connection) {
	plan.config[e.ID] = append(plan.config[e.ID], c)
}

// routeStage implements the recursive routing protocol: color the
// conflict graph of the current level with m colors, configure the
// input/output µswitches (activating reduction/distribution where a
// flow owns both ports), then recurse into each middle subnetwork with
// the projected sub-flows.
func (ic *Interconnect) routeStage(st *stage, flows []localFlow, plan *Plan, level int) error {
	if len(flows) == 0 {
		return nil
	}
	if st.base != nil {
		if ic.ElementFailed(st.base.ID) {
			return &DeadSwitchError{Level: level, Element: st.base.Label, Flows: flowIDs(flows)}
		}
		for _, f := range flows {
			addConn(plan, st.base, Connection{In: portSet(f.ips), Out: portSet(f.ops), Flow: f.id})
		}
		return nil
	}

	// Conflict graph: an edge joins two flows that share an input
	// µswitch or an output µswitch (Section 5.2, first intuition).
	sc := ic.scratchAt(level)
	n, r := len(flows), st.r
	sc.inMask = reuse(sc.inMask, n*r)
	sc.outMask = reuse(sc.outMask, n*r)
	sc.oddIn = reuse(sc.oddIn, n)
	sc.oddOut = reuse(sc.oddOut, n)
	inMask, outMask, oddIn, oddOut := sc.inMask, sc.outMask, sc.oddIn, sc.oddOut
	for i, f := range flows {
		for _, p := range f.ips {
			if st.odd && p == 2*r {
				oddIn[i] = true
			} else {
				inMask[i*r+p/2] |= 1 << (p % 2)
			}
		}
		for _, p := range f.ops {
			if st.odd && p == 2*r {
				oddOut[i] = true
			} else {
				outMask[i*r+p/2] |= 1 << (p % 2)
			}
		}
	}
	// A failed input/output µswitch (or odd-port mux/demux) owns its
	// external ports outright — no middle-stage spare path can bypass
	// it — so flows wired through one are dead, not re-plannable.
	if ic.failed != nil {
		for s, e := range st.inputs {
			if ic.failed[e.ID] {
				if ids := flowsUsingSwitch(flows, inMask, r, s); len(ids) > 0 {
					return &DeadSwitchError{Level: level, Element: e.Label, Flows: ids}
				}
			}
		}
		for s, e := range st.outputs {
			if ic.failed[e.ID] {
				if ids := flowsUsingSwitch(flows, outMask, r, s); len(ids) > 0 {
					return &DeadSwitchError{Level: level, Element: e.Label, Flows: ids}
				}
			}
		}
		if st.odd && ic.failed[st.demux.ID] {
			if ids := flowsWithOdd(flows, oddIn); len(ids) > 0 {
				return &DeadSwitchError{Level: level, Element: st.demux.Label, Flows: ids}
			}
		}
		if st.odd && ic.failed[st.mux.ID] {
			if ids := flowsWithOdd(flows, oddOut); len(ids) > 0 {
				return &DeadSwitchError{Level: level, Element: st.mux.Label, Flows: ids}
			}
		}
	}

	sc.adjFlat = reuse(sc.adjFlat, n*n)
	if cap(sc.adj) < n {
		sc.adj = make([][]bool, n)
	}
	adj := sc.adj[:n]
	for i := range adj {
		adj[i] = sc.adjFlat[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for s := 0; s < r; s++ {
				if inMask[i*r+s] != 0 && inMask[j*r+s] != 0 ||
					outMask[i*r+s] != 0 && outMask[j*r+s] != 0 {
					adj[i][j] = true
					adj[j][i] = true
					break
				}
			}
		}
	}

	// Clos spare paths: a middle subnetwork with an internal failure is
	// banned from the palette, and the coloring re-plans over the
	// survivors.
	banned := ic.bannedMiddles(st)
	colors, ok := ic.colorCached(adj, banned)
	if !ok {
		nBanned := 0
		for _, b := range banned {
			if b {
				nBanned++
			}
		}
		return &ConflictError{Level: level, Flows: flowIDs(flows), M: ic.m, FailedMiddles: nBanned}
	}

	// Configure this level and project sub-flows per middle subnetwork.
	if cap(sc.sub) < ic.m {
		sc.sub = make([][]localFlow, ic.m)
	}
	sub := sc.sub[:ic.m]
	for c := range sub {
		sub[c] = sub[c][:0]
	}
	ports := sc.ports[:0]
	for i, f := range flows {
		c := colors[i]
		plan.Assignments = append(plan.Assignments, Assignment{Level: level, Path: st.path, Flow: f.id, Color: c})
		ips := len(ports)
		for s, mask := range inMask[i*r : (i+1)*r] {
			if mask != 0 {
				addConn(plan, st.inputs[s], Connection{In: portSets[mask], Out: ic.colorPort(c), Flow: f.id})
				ports = append(ports, s)
			}
		}
		if oddIn[i] {
			addConn(plan, st.demux, Connection{In: portSets[1], Out: ic.colorPort(c), Flow: f.id})
			ports = append(ports, r)
		}
		ops := len(ports)
		for s, mask := range outMask[i*r : (i+1)*r] {
			if mask != 0 {
				addConn(plan, st.outputs[s], Connection{In: ic.colorPort(c), Out: portSets[mask], Flow: f.id})
				ports = append(ports, s)
			}
		}
		if oddOut[i] {
			addConn(plan, st.mux, Connection{In: ic.colorPort(c), Out: portSets[1], Flow: f.id})
			ports = append(ports, r)
		}
		sub[c] = append(sub[c], localFlow{id: f.id, ips: ports[ips:ops:ops], ops: ports[ops:len(ports):len(ports)]})
	}
	sc.ports = ports
	for c, flows := range sub {
		if err := ic.routeStage(st.middles[c], flows, plan, level+1); err != nil {
			return err
		}
	}
	return nil
}

// flowIDs extracts the original flow indices of a level's flows.
func flowIDs(flows []localFlow) []int {
	ids := make([]int, len(flows))
	for i, f := range flows {
		ids[i] = f.id
	}
	return ids
}

// flowsUsingSwitch returns the original IDs of flows whose port masks
// (r µswitches per flow) reference first/last-stage µswitch s.
func flowsUsingSwitch(flows []localFlow, masks []uint8, r, s int) []int {
	var ids []int
	for i := range flows {
		if masks[i*r+s] != 0 {
			ids = append(ids, flows[i].id)
		}
	}
	return ids
}

// flowsWithOdd returns the original IDs of flows using the odd port.
func flowsWithOdd(flows []localFlow, odd []bool) []int {
	var ids []int
	for i := range flows {
		if odd[i] {
			ids = append(ids, flows[i].id)
		}
	}
	return ids
}

// colorGraph finds a proper coloring of the conflict graph with at
// most m colors via exact backtracking, visiting vertices in
// descending-degree order. banned (optional) removes colors whose
// middle subnetwork is out of service. Conflict graphs are small (one
// node per concurrent flow), so exact search is cheap and — unlike
// greedy — never reports a spurious conflict.
func colorGraph(adj [][]bool, m int, banned []bool) ([]int, bool) {
	n := len(adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	deg := make([]int, n)
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				deg[i]++
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })

	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	var assign func(k int) bool
	assign = func(k int) bool {
		if k == n {
			return true
		}
		v := order[k]
		// Symmetry breaking: the first vertex can take color 0 only;
		// later vertices may only use colors 0..(max used + 1). Banned
		// colors break the palette's symmetry, so the pruning is only
		// sound on a healthy interconnect.
		limit := m - 1
		if banned == nil {
			maxUsed := -1
			for i := 0; i < k; i++ {
				if colors[order[i]] > maxUsed {
					maxUsed = colors[order[i]]
				}
			}
			limit = maxUsed + 1
			if limit >= m {
				limit = m - 1
			}
		}
		for c := 0; c <= limit; c++ {
			if banned != nil && banned[c] {
				continue
			}
			ok := true
			for u := 0; u < n; u++ {
				if adj[v][u] && colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if assign(k + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	return colors, true
}
