package core

import (
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/graph"
)

// PortMap assigns deterministic local link IDs for every node of a graph:
// node u's incident links get IDs 1..deg(u) in ascending neighbor order
// (ID 0 is the NCU). Both runtimes share one PortMap so that ANR headers are
// portable across them.
//
// All ports live in one contiguous arena (per-node views are sub-slices),
// and the neighbor->ID lookup is a binary search over the node's ports —
// which are sorted by Remote by construction — so building the map costs
// O(1) allocations per node instead of a slice and a map each.
type PortMap struct {
	ports   [][]Port // per node, index = localID-1; Remote ascending
	idWidth int
}

// NewPortMap builds the port assignment for g.
func NewPortMap(g *graph.Graph) *PortMap {
	n := g.N()
	pm := &PortMap{
		ports:   make([][]Port, n),
		idWidth: anr.IDWidth(g.MaxDegree()),
	}
	total := 0
	for u := 0; u < n; u++ {
		total += g.Degree(NodeID(u))
	}
	arena := make([]Port, 0, total)
	for u := 0; u < n; u++ {
		nbs := g.Neighbors(NodeID(u))
		start := len(arena)
		for i, v := range nbs {
			arena = append(arena, Port{Local: anr.ID(i + 1), Remote: v, Up: true})
		}
		pm.ports[u] = arena[start:len(arena):len(arena)]
	}
	// Second pass: fill in the remote side's ID for each port (the
	// data-link handshake knowledge).
	for u := range pm.ports {
		for i := range pm.ports[u] {
			v := pm.ports[u][i].Remote
			id, _ := pm.Toward(v, NodeID(u))
			pm.ports[u][i].RemoteID = id
		}
	}
	return pm
}

// IDWidth returns the link-ID bit width for this network (k = O(log m)).
func (pm *PortMap) IDWidth() int { return pm.idWidth }

// Ports returns node u's ports in ascending local-ID order. The slice is
// shared; callers must not modify it.
func (pm *PortMap) Ports(u NodeID) []Port { return pm.ports[u] }

// Toward returns u's local link ID for the edge to v.
func (pm *PortMap) Toward(u, v NodeID) (anr.ID, bool) {
	if p := toward(pm.ports[u], v); p != nil {
		return p.Local, true
	}
	return 0, false
}

// toward finds the port of one node that leads to v, nil if none does.
func toward(ports []Port, v NodeID) *Port {
	i := sort.Search(len(ports), func(k int) bool { return ports[k].Remote >= v })
	if i < len(ports) && ports[i].Remote == v {
		return &ports[i]
	}
	return nil
}

// Resolve maps u's local link ID to the port it names.
func (pm *PortMap) Resolve(u NodeID, l anr.ID) (Port, error) {
	if l == anr.NCU {
		return Port{}, fmt.Errorf("core: link ID 0 is the NCU, not a port, at node %d", u)
	}
	i := int(l) - 1
	if i < 0 || i >= len(pm.ports[u]) {
		return Port{}, fmt.Errorf("core: node %d has no link %d", u, l)
	}
	return pm.ports[u][i], nil
}

// Admit is send admission, the one place a runtime decides whether the
// switching subsystem takes a packet (docs/MODEL.md §§1-3): the header is well
// formed, at most dmax hops long (0 = unrestricted; a violation is counted),
// and names, from src on, only links that exist — a route is refused whole,
// wherever on it a dead link, the filter or a fault would have stopped the
// packet. An admitted packet is accounted into m: Packets, HeaderBits,
// MaxHeaderHops.
func (pm *PortMap) Admit(m *Metrics, src NodeID, h anr.Header, dmax int) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if err := h.CheckDmax(dmax); err != nil {
		m.DmaxViolations++
		return err
	}
	hops := h[:len(h)-1]
	for _, hop := range hops {
		port, err := pm.Resolve(src, hop.Link)
		if err != nil {
			return err
		}
		src = port.Remote
	}
	m.Packets++
	m.HeaderBits += int64(len(h)) * int64(pm.idWidth+1)
	m.MaxHeaderHops = max(m.MaxHeaderHops, int64(len(hops)))
	return nil
}

// Links is the live link state of one network — Links[u] is node u's ports,
// index = localID-1, a PortMap's rows with Up following the data-link
// notifications — in one slab, each row capacity-clamped so no append can
// bleed into a neighbor's. A runtime owns the synchronisation: the table
// itself has none.
type Links [][]Port

// NewLinks returns pm's links, all up.
func NewLinks(pm *PortMap) Links {
	total := 0
	for _, ports := range pm.ports {
		total += len(ports)
	}
	arena := make([]Port, 0, total)
	links := make(Links, len(pm.ports))
	for u := range links {
		start := len(arena)
		arena = append(arena, pm.Ports(NodeID(u))...)
		links[u] = arena[start:len(arena):len(arena)]
	}
	return links
}

// Toward returns u's port whose remote end is v.
func (l Links) Toward(u, v NodeID) (Port, bool) {
	if p := toward(l[u], v); p != nil {
		return *p, true
	}
	return Port{}, false
}

// Flip sets u's end of edge {u, v} and returns the port, as u's NCU is to be
// notified of it. One end only: a shard writes the rows of the nodes it owns,
// so a flip of the whole edge is two calls. A non-edge is a caller's bug.
func (l Links) Flip(u, v NodeID, up bool) Port {
	p := toward(l[u], v)
	p.Up = up
	return *p
}

// Up reports whether edge {u, v} carries packets, as seen from u's end; a
// link that does not exist carries none.
func (l Links) Up(u, v NodeID) bool {
	p := toward(l[u], v)
	return p != nil && p.Up
}

// RouteLinks converts a node path starting at src into the sequence of local
// link IDs that an ANR header needs: the ID at each hop's sending node.
func (pm *PortMap) RouteLinks(path []NodeID) ([]anr.ID, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	return pm.appendLinks(make([]anr.ID, 0, len(path)-1), path)
}

// appendLinks appends the link IDs of a non-empty node path to links.
func (pm *PortMap) appendLinks(links []anr.ID, path []NodeID) ([]anr.ID, error) {
	for i := 0; i+1 < len(path); i++ {
		id, ok := pm.Toward(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("core: no edge %d-%d on path", path[i], path[i+1])
		}
		links = append(links, id)
	}
	return links, nil
}

// routeChunk is how many link IDs RoutePairs carves routes from per array.
const routeChunk = 1024

// RoutePairs computes the min-hop link route (RouteLinks of the BFS tree
// path) for every ordered (src, dst) pair: routes[i] belongs to pairs[i] and
// is nil when dst is unreachable from src or either endpoint is outside g.
// Each pair is searched from both ends by one reused graph.Search, in input
// order, and its route is exactly that of g.BFSTree(src).PathFromRoot(dst).
// Routes are capped windows (cap == len) of shared arrays, so appending to
// one copies it rather than overwriting the next.
func (pm *PortMap) RoutePairs(g *graph.Graph, pairs [][2]NodeID) ([][]anr.ID, error) {
	routes := make([][]anr.ID, len(pairs))
	search := graph.NewSearch(g)
	var path []NodeID
	var chunk []anr.ID
	for i, p := range pairs {
		if path = search.Path(path[:0], p[0], p[1]); path == nil {
			continue
		}
		// A nil chunk would make src == dst's empty route nil, i.e. unreachable.
		if hops := len(path) - 1; chunk == nil || cap(chunk)-len(chunk) < hops {
			chunk = make([]anr.ID, 0, max(routeChunk, hops))
		}
		start := len(chunk)
		var err error
		if chunk, err = pm.appendLinks(chunk, path); err != nil {
			return nil, err
		}
		routes[i] = chunk[start:len(chunk):len(chunk)]
	}
	return routes, nil
}
