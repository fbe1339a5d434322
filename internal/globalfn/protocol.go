package globalfn

import (
	"errors"
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// Value is a distributed input or partial result.
type Value int64

// Combine folds two partial results; it must be associative and commutative
// (the paper's function class).
type Combine func(a, b Value) Value

// Standard globally sensitive functions.
var (
	// Max is globally sensitive on any input vector whose entries can be
	// exceeded (raise any input above the current maximum).
	Max Combine = func(a, b Value) Value {
		if a > b {
			return a
		}
		return b
	}
	// Sum is globally sensitive everywhere.
	Sum Combine = func(a, b Value) Value { return a + b }
)

// start triggers a leaf's initial send.
type start struct{}

// partial carries a subtree's folded value to its parent.
type partial struct {
	Value Value
}

// proto is the tree-based algorithm at one node: wait for all children,
// fold, forward (§5.2's "tree based algorithm"). The fold of the node's own
// input and the forwarding happen within the last child's activation, so an
// interior node costs exactly one activation per child and a leaf exactly
// one activation — matching the S(t) recursion's accounting.
type proto struct {
	id      core.NodeID
	cfg     *runCfg
	acc     Value
	pending int
	decided bool
	result  Value
}

type runCfg struct {
	tree    *Tree
	inputs  []Value
	combine Combine
}

var _ core.Protocol = (*proto)(nil)

func (p *proto) Init(core.Env) {
	p.acc = p.cfg.inputs[p.id]
	p.pending = len(p.cfg.tree.Children[p.id])
}

func (p *proto) LinkEvent(core.Env, core.Port) {}

func (p *proto) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case start:
		if p.pending == 0 {
			p.finish(env)
		}
	case *partial:
		if p.pending == 0 {
			env.Fail(errors.New("globalfn: unexpected partial"))
			return
		}
		p.acc = p.cfg.combine(p.acc, m.Value)
		p.pending--
		if p.pending == 0 {
			p.finish(env)
		}
	}
}

func (p *proto) finish(env core.Env) {
	if p.id == 0 {
		p.decided = true
		p.result = p.acc
		return
	}
	parent := core.NodeID(p.cfg.tree.Parent[p.id])
	port, ok := env.PortToward(parent)
	if !ok {
		env.Fail(fmt.Errorf("globalfn: not adjacent to parent %d", parent))
		return
	}
	if err := env.Send(anr.OneHop(port.Local), &partial{Value: p.acc}); err != nil {
		env.Fail(fmt.Errorf("globalfn: send to parent: %w", err))
	}
}

// Result reports one execution of the tree-based algorithm.
type Result struct {
	// Finish is the virtual time of the root's final activation.
	Finish Time
	// Value is the function value computed at the root (the paper's node 1).
	Value   Value
	Metrics core.Metrics
}

// ErrEmptyTree is returned when the tree has no nodes.
var ErrEmptyTree = errors.New("globalfn: empty tree")

// Execute runs the tree-based algorithm over the given tree with exact
// worst-case delays. By default the simulated topology is the tree itself
// (the algorithm only uses tree edges); set onComplete to run on the full
// complete graph instead — the paper's setting — which is identical in
// behavior but quadratic in memory. Extra simulator options (e.g. tracing)
// may be appended.
func Execute(t *Tree, p Params, inputs []Value, combine Combine, onComplete bool, opts ...sim.Option) (Result, error) {
	if t.Size == 0 {
		return Result{}, ErrEmptyTree
	}
	if len(inputs) != t.Size {
		return Result{}, fmt.Errorf("globalfn: %d inputs for %d nodes", len(inputs), t.Size)
	}
	if p.C < 0 || p.P < 0 {
		return Result{}, ErrBadParams
	}
	var g *graph.Graph
	if onComplete {
		g = graph.Complete(t.Size)
	} else {
		g = graph.New(t.Size)
		for id := 1; id < t.Size; id++ {
			g.MustAddEdge(core.NodeID(id), core.NodeID(t.Parent[id]))
		}
	}
	cfg := &runCfg{tree: t, inputs: inputs, combine: combine}
	base := []sim.Option{sim.WithDelays(core.Time(p.C), core.Time(p.P)), sim.WithDmax(t.Size)}
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		return &proto{id: id, cfg: cfg}
	}, append(base, opts...)...)
	for _, leaf := range t.leaves() {
		net.Inject(0, core.NodeID(leaf), start{})
	}
	finish, err := net.Run()
	if err != nil {
		return Result{}, err
	}
	root, ok := net.Protocol(0).(*proto)
	if !ok || !root.decided {
		return Result{}, fmt.Errorf("globalfn: root did not decide")
	}
	return Result{Finish: Time(finish), Value: root.result, Metrics: net.Metrics()}, nil
}
