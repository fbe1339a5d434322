// Package globalfn implements §5 of the paper: optimal distributed
// computation of globally sensitive functions on a complete network with
// hardware delay C per hop and software delay P per NCU activation.
//
// Theorem 6 shows some worst-case-optimal algorithm is tree based: leaves
// send their inputs, every interior node combines all children's partial
// results with its own input and forwards one message to its parent. The
// optimal tree obeys
//
//	OT(t) = OT(t−P) ⊕ OT(t−C−P)    S(t) = S(t−P) + S(t−C−P)
//
// with S(t)=0 for t<P and S(t)=1 for P ≤ t < 2P+C: a root that finishes at
// time t can absorb one more child whose subtree finished at t−C−P. The
// paper's worked examples fall out as special cases: C=0,P=1 gives binomial
// trees (S(k)=2^(k−1)); C=1,P=1 gives Fibonacci growth; P=0 recovers the
// traditional model, where a star of unbounded size finishes in constant
// time and the recursion blows up.
package globalfn

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Time is virtual time, compatible with the simulator's core.Time.
type Time int64

// Errors of the recursion.
var (
	// ErrTraditional is returned for P = 0: with free software the star
	// gathers any number of nodes in 2P+C time — the recursion (and the
	// new model's distinction) degenerates, exactly as the paper's example
	// 2 notes.
	ErrTraditional = errors.New("globalfn: P = 0 degenerates to the traditional model (unbounded star)")
	// ErrOverflow is returned when S(t) exceeds int64.
	ErrOverflow = errors.New("globalfn: tree size overflows int64")
	// ErrBadParams is returned for negative parameters.
	ErrBadParams = errors.New("globalfn: delays must be non-negative")
)

// Params fixes one (C, P) regime.
type Params struct {
	C Time // worst-case hardware (per hop) delay
	P Time // worst-case software (per activation) delay
}

func (p Params) validate() error {
	if p.C < 0 || p.P < 0 {
		return ErrBadParams
	}
	if p.P == 0 {
		return ErrTraditional
	}
	return nil
}

// S returns the maximum number of nodes over which a tree-based algorithm
// can compute any globally sensitive function within time t (the size of
// the optimal tree OT(t)).
func (p Params) S(t Time) (int64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	memo := make(map[Time]int64)
	return p.s(t, memo)
}

func (p Params) s(t Time, memo map[Time]int64) (int64, error) {
	if t < p.P {
		return 0, nil
	}
	if t < 2*p.P+p.C {
		return 1, nil
	}
	if v, ok := memo[t]; ok {
		return v, nil
	}
	a, err := p.s(t-p.P, memo)
	if err != nil {
		return 0, err
	}
	b, err := p.s(t-p.C-p.P, memo)
	if err != nil {
		return 0, err
	}
	if a > math.MaxInt64-b {
		return 0, ErrOverflow
	}
	memo[t] = a + b
	return a + b, nil
}

// OptimalTime returns the smallest worst-case completion time t at which a
// tree-based algorithm spans at least n nodes, i.e. min{t : S(t) >= n}.
// Only times of the form i*P + j*C arise (the paper's n² grid); the
// returned value is exact.
func (p Params) OptimalTime(n int64) (Time, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("globalfn: need at least one node, got %d", n)
	}
	if n == 1 {
		return p.P, nil
	}
	memo := make(map[Time]int64)
	// Exponential search for an upper bound.
	hi := 2*p.P + p.C
	for {
		v, err := p.s(hi, memo)
		if err != nil {
			return 0, err
		}
		if v >= n {
			break
		}
		hi *= 2
	}
	// Candidate completion times are i*P + j*(C+P): i activations on the
	// root's critical path plus j full child-message latencies. Enumerate
	// the grid up to hi and binary-search it.
	grid := p.gridUpTo(hi)
	idx := sort.Search(len(grid), func(k int) bool {
		v, err := p.s(grid[k], memo)
		return err == nil && v >= n
	})
	if idx == len(grid) {
		return 0, fmt.Errorf("globalfn: no grid point up to %d reaches n=%d", hi, n)
	}
	return grid[idx], nil
}

// gridUpTo enumerates the sorted distinct values i*P + j*(C+P) <= hi with
// i >= 1, j >= 0.
func (p Params) gridUpTo(hi Time) []Time {
	set := make(map[Time]struct{})
	step := p.C + p.P
	for j := Time(0); j*step+p.P <= hi; j++ {
		for i := Time(1); i*p.P+j*step <= hi; i++ {
			set[i*p.P+j*step] = struct{}{}
		}
	}
	out := make([]Time, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Tree is an explicit optimal aggregation tree. Node IDs are 0..Size-1 with
// the root at 0 (the paper's "node 1").
type Tree struct {
	Size     int
	Parent   []int   // Parent[0] = -1
	Children [][]int // children in attachment order (earliest-finishing last)
}

// node is the construction-time shape before ID assignment.
type node struct {
	children []*node
}

func (n *node) count() int {
	c := 1
	for _, ch := range n.children {
		c += ch.count()
	}
	return c
}

// OptimalTree materializes OT(t) for the given parameters. The returned
// tree has exactly S(t) nodes; running the tree-based algorithm over it with
// exact worst-case delays finishes no later than t, and exactly at t when t
// = OptimalTime(S(t)) (otherwise a smaller time would span the same tree,
// contradicting minimality).
func (p Params) OptimalTree(t Time) (*Tree, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if n, err := p.S(t); err != nil {
		return nil, err
	} else if n > 1<<22 {
		return nil, fmt.Errorf("globalfn: OT(%d) has %d nodes; too large to materialize", t, n)
	}
	root := p.ot(t)
	if root == nil {
		return &Tree{}, nil
	}
	return freeze(root), nil
}

func (p Params) ot(t Time) *node {
	if t < p.P {
		return nil
	}
	if t < 2*p.P+p.C {
		return &node{}
	}
	a := p.ot(t - p.P)
	b := p.ot(t - p.C - p.P)
	if b != nil {
		a.children = append(a.children, b)
	}
	return a
}

// freeze assigns breadth-first IDs (root = 0) and builds the arrays.
func freeze(root *node) *Tree {
	n := root.count()
	tr := &Tree{
		Size:     n,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	tr.Parent[0] = -1
	type qe struct {
		n  *node
		id int
	}
	queue := []qe{{n: root, id: 0}}
	next := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range cur.n.children {
			tr.Parent[next] = cur.id
			tr.Children[cur.id] = append(tr.Children[cur.id], next)
			queue = append(queue, qe{n: ch, id: next})
			next++
		}
	}
	return tr
}

// PruneTo returns a subtree with exactly n nodes (the first n in BFS order,
// which is prefix-closed, so it remains a valid tree). Running the algorithm
// over the pruned tree finishes no later than over the full tree.
func (t *Tree) PruneTo(n int) (*Tree, error) {
	if n < 1 || n > t.Size {
		return nil, fmt.Errorf("globalfn: cannot prune %d-node tree to %d", t.Size, n)
	}
	pr := &Tree{
		Size:     n,
		Parent:   append([]int(nil), t.Parent[:n]...),
		Children: make([][]int, n),
	}
	for id := 1; id < n; id++ {
		p := pr.Parent[id]
		pr.Children[p] = append(pr.Children[p], id)
	}
	return pr, nil
}

// leaves returns the IDs of all leaves.
func (t *Tree) leaves() []int {
	var out []int
	for id := 0; id < t.Size; id++ {
		if len(t.Children[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Depth returns the maximum root-to-leaf edge count.
func (t *Tree) Depth() int {
	depth := make([]int, t.Size)
	max := 0
	for id := 1; id < t.Size; id++ {
		depth[id] = depth[t.Parent[id]] + 1 // BFS order: parent precedes child
		if depth[id] > max {
			max = depth[id]
		}
	}
	return max
}

// Star returns the star "tree": node 0 with n-1 direct children — the
// traditional model's optimum, used as the comparison algorithm in the
// paper's §5 discussion.
func Star(n int) *Tree {
	t := &Tree{
		Size:     n,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	t.Parent[0] = -1
	for id := 1; id < n; id++ {
		t.Parent[id] = 0
		t.Children[0] = append(t.Children[0], id)
	}
	return t
}

// StarTime predicts the star algorithm's worst-case completion under
// exact delays: the n-1 leaf activations run in parallel (P), the messages
// take C, and the root serializes n-1 activations of P each.
func StarTime(n int64, p Params) Time {
	if n <= 1 {
		return p.P
	}
	return p.P + p.C + Time(n-1)*p.P
}
