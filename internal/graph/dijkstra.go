package graph

import (
	"container/heap"
	"sync"
)

// WeightFunc assigns a positive cost to traversing edge {u, v}. Weights
// must be symmetric.
type WeightFunc func(u, v NodeID) int64

// distHeapPool recycles priority-queue slices across Dijkstra runs. Pop order
// depends only on the pushed (node, dist) entries, so pooling is invisible in
// results.
var distHeapPool = sync.Pool{New: func() any { return new(distHeap) }}

// ShortestTreeInto is ShortestTree reusing t's backing arrays and dist's
// backing array (nil values allocate fresh). The priority queue comes from an
// internal pool, so a warm call allocates nothing beyond what the caller
// passed in.
func (g *Graph) ShortestTreeInto(t *Tree, dist []int64, root NodeID, weight WeightFunc) (*Tree, []int64) {
	if t == nil {
		t = &Tree{}
	}
	t.Root = root
	t.Parent = resize(t.Parent, g.n)
	t.Depth = resize(t.Depth, g.n)
	if cap(dist) >= g.n {
		dist = dist[:g.n]
	} else {
		dist = make([]int64, g.n)
	}
	for i := range t.Parent {
		t.Parent[i] = None
		t.Depth[i] = -1
		dist[i] = -1
	}
	if !g.valid(root) {
		return t, dist
	}
	dist[root] = 0
	t.Depth[root] = 0
	pqp := distHeapPool.Get().(*distHeap)
	pq := (*pqp)[:0]
	pq = append(pq, distEntry{node: root, dist: 0})
	*pqp = pq
	for pqp.Len() > 0 {
		cur := heap.Pop(pqp).(distEntry)
		if cur.dist > dist[cur.node] {
			continue // stale entry
		}
		for _, v := range g.adj[cur.node] {
			w := weight(cur.node, v)
			if w <= 0 {
				w = 1
			}
			nd := cur.dist + w
			if dist[v] < 0 || nd < dist[v] {
				dist[v] = nd
				t.Parent[v] = cur.node
				t.Depth[v] = t.Depth[cur.node] + 1
				heap.Push(pqp, distEntry{node: v, dist: nd})
			}
		}
	}
	*pqp = (*pqp)[:0]
	distHeapPool.Put(pqp)
	return t, dist
}

type distEntry struct {
	node NodeID
	dist int64
}

type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
