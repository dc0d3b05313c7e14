package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// Degraded-mode routing: every topology can be asked for a route that
// avoids failed links. The mesh falls back from X-Y dimension order to
// a breadth-first detour over the surviving links — real 2D meshes do
// exactly this with fault-tolerant turn models, at the cost of longer,
// more congested paths. The FRED fabric has no link-level detour to
// fall back to: a switch-to-switch trunk is a bundle of middle-µswitch
// paths whose partial loss is modelled as bandwidth degradation (Clos
// spare paths re-planned by the conflict-free router, see
// internal/fred), so a fully failed trunk or NPU port makes the
// endpoint unreachable.

// UnreachableError reports that no alive route connects two NPUs.
type UnreachableError struct {
	Topo     string
	Src, Dst int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("topology: %s: no alive route from NPU %d to NPU %d", e.Topo, e.Src, e.Dst)
}

// FaultRouter is implemented by wafers that can route around failed
// links. RouteErr returns the topology's canonical route when it is
// fully alive, a deterministic detour over surviving links when the
// topology has path diversity, and an UnreachableError otherwise.
type FaultRouter interface {
	RouteErr(src, dst int) ([]netsim.LinkID, error)
}

// routeAlive reports whether every link of a route is alive.
func routeAlive(net *netsim.Network, route []netsim.LinkID) bool {
	for _, id := range route {
		if net.Link(id).Failed() {
			return false
		}
	}
	return true
}

// RouteErr implements FaultRouter: X-Y dimension order when that path
// is alive, otherwise the shortest detour over surviving mesh links
// (breadth-first, deterministic neighbour order: east, west, south,
// north), otherwise an UnreachableError when the failures partition
// the mesh.
func (m *Mesh) RouteErr(src, dst int) ([]netsim.LinkID, error) {
	if src == dst {
		return nil, nil
	}
	if xy := m.Route(src, dst); routeAlive(m.net, xy) {
		return xy, nil
	}
	return m.detourRoute(src, dst)
}

// aliveNeighborLink returns the directed link between two adjacent
// NPUs, or false when the NPUs are not adjacent or the link has failed.
func (m *Mesh) aliveNeighborLink(from, to int) (netsim.LinkID, bool) {
	id, ok := m.links[[2]int{from, to}]
	if !ok || m.net.Link(id).Failed() {
		return 0, false
	}
	return id, true
}

// detourRoute runs a breadth-first search over the alive mesh links.
// The neighbour expansion order (east, west, south, north) and FIFO
// frontier make the chosen detour deterministic for a given fault
// state.
func (m *Mesh) detourRoute(src, dst int) ([]netsim.LinkID, error) {
	n := len(m.npus)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 && prev[dst] < 0 {
		cur := queue[0]
		queue = queue[1:]
		x, y := m.Coord(cur)
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= m.cfg.W || ny < 0 || ny >= m.cfg.H {
				continue
			}
			next := m.Index(nx, ny)
			if prev[next] >= 0 {
				continue
			}
			if _, ok := m.aliveNeighborLink(cur, next); !ok {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if prev[dst] < 0 {
		return nil, &UnreachableError{Topo: m.Name(), Src: src, Dst: dst}
	}
	// Reconstruct dst←src, then reverse into link order.
	var hops []int
	for at := dst; at != src; at = prev[at] {
		hops = append(hops, at)
	}
	route := make([]netsim.LinkID, 0, len(hops))
	at := src
	for i := len(hops) - 1; i >= 0; i-- {
		id, ok := m.aliveNeighborLink(at, hops[i])
		if !ok {
			panic("topology: BFS produced a dead hop") // unreachable by construction
		}
		route = append(route, id)
		at = hops[i]
	}
	return route, nil
}

// RouteErr implements FaultRouter. The up-down route through the
// switch hierarchy is unique at link granularity (path diversity lives
// inside the switches, see package fred), so a failed link on it means
// the pair is unreachable.
func (f *FredFabric) RouteErr(src, dst int) ([]netsim.LinkID, error) {
	route := f.Route(src, dst)
	if !routeAlive(f.net, route) {
		return nil, &UnreachableError{Topo: f.Name(), Src: src, Dst: dst}
	}
	return route, nil
}

// AliveNPUs returns the NPUs whose injection ports (both directions)
// are still alive, in index order — the membership a degraded
// collective re-plans over.
func AliveNPUs(w Wafer) []int {
	net := w.Network()
	var alive []int
	switch v := w.(type) {
	case *Mesh:
		for i := range v.npus {
			// A mesh NPU participates while any of its ports work: check
			// that at least one in- and one out-link survive.
			in, out := false, false
			x, y := v.Coord(i)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= v.cfg.W || ny < 0 || ny >= v.cfg.H {
					continue
				}
				j := v.Index(nx, ny)
				if _, ok := v.aliveNeighborLink(i, j); ok {
					out = true
				}
				if _, ok := v.aliveNeighborLink(j, i); ok {
					in = true
				}
			}
			if in && out {
				alive = append(alive, i)
			}
		}
	case *FredFabric:
		for i := range v.npus {
			if !net.Link(v.npuUp[i]).Failed() && !net.Link(v.npuDown[i]).Failed() {
				alive = append(alive, i)
			}
		}
	default:
		for i := 0; i < w.NPUCount(); i++ {
			alive = append(alive, i)
		}
	}
	return alive
}
