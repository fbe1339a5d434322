// Package runtimetest is the runtime contract of docs/MODEL.md §9 written
// once, in the manner of testing/fstest: each Row builds its networks through
// the Engine it is handed, drives them through core.Runtime plus Inject,
// CrashNode, RestoreNode and Quiesce, and returns what it saw or why the
// engine broke the clause. The tests of each runtime hand Check their engines
// (sim: classic, WithShards(1|2|8), the reference engine; gosim), and
// internal/integration runs both runtimes on every row.
package runtimetest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// Config is what a row asks of a network. C and P are the delays per hop and
// per activation of the discrete-event model; the goroutine runtime has none.
type Config struct {
	C, P   core.Time
	Dmax   int
	Faults core.MsgFaults
	Filter core.HopFilter
	Trace  trace.Sink
}

// Net is a network as a row drives it: every call acts at the current
// instant, and Quiesce runs until nothing is in flight and returns the run's
// first Env.Fail.
type Net interface {
	core.Runtime
	Inject(v core.NodeID, payload any)
	CrashNode(v core.NodeID)
	RestoreNode(v core.NodeID)
	Quiesce() error
	Shutdown()
}

// Engine builds networks. New returns ErrRefused for a Config the engine does
// not run as itself, and another error for a network that is not what the
// engine claims. Preconditions is the prefix ("sim", "gosim") of the panics
// by which the engine refuses a node or edge outside its graph, "" for an
// engine without them, on which such refusals go unchecked.
type Engine struct {
	Name          string
	New           func(g *graph.Graph, f core.Factory, c Config) (Net, error)
	Preconditions string
}

// ErrRefused is Engine.New's answer to a Config the engine does not run.
var ErrRefused = errors.New("runtimetest: configuration refused by the engine")

// What an engine may offer beyond Net, asked for as fstest asks for
// ReadDirFS: a clock that reads the model's time, link flips scripted at a
// time, and per-node ledgers.
type (
	clock    interface{ Now() core.Time }
	scripted interface {
		SetLink(t core.Time, u, v core.NodeID, up bool)
	}
	busyTimes interface{ BusyTimePerNode() []core.Time }
	perNode   interface{ DeliveriesPerNode() []int64 }
)

// Outcome is what every engine must see alike: the metrics but the finish
// time, which acts were refused, the multiset of deliveries; nil for a row
// whose runtimes differ by design.
type Outcome []string

// Row is one clause of the contract, checked on one engine.
type Row func(e Engine) (Outcome, error)

// Check runs each named row on every engine that does not refuse it, and
// returns each failure and each outcome that differs from the first engine's.
func Check(engines []Engine, names ...string) []error {
	var errs []error
	for _, name := range names {
		row, ok := Rows[name]
		if !ok {
			errs = append(errs, fmt.Errorf("runtimetest has no row %q", name))
		}
		var first Outcome
		var firstOn string
		for _, e := range engines {
			if !ok {
				break
			}
			got, err := row(e)
			switch {
			case errors.Is(err, ErrRefused):
			case err != nil:
				errs = append(errs, fmt.Errorf("%s on %s: %w", name, e.Name, err))
			case first == nil:
				first, firstOn = got, e.Name
			case got != nil && !slices.Equal(got, first):
				errs = append(errs, fmt.Errorf("%s: %s saw\n%s\n%s saw\n%s", name, e.Name, strings.Join(got, "\n"), firstOn, strings.Join(first, "\n")))
			}
		}
	}
	return errs
}

// act is a payload that runs in the activation it is handed to; what it
// returns is the node's answer.
type act func(env core.Env, pkt core.Packet) error

// send is the act that sends payload over route (an anr.Header), or
// multicasts it ([]anr.Header).
func send(payload, route any) act {
	return func(env core.Env, _ core.Packet) error {
		if hs, ok := route.([]anr.Header); ok {
			return env.Multicast(hs, payload)
		}
		return env.Send(route.(anr.Header), payload)
	}
}

// run is one row's network on one engine: what its probes saw, read once it
// is quiet, and the row's failed expectations.
type run struct {
	Net
	e       Engine
	g       *graph.Graph
	trace   *trace.Buffer
	mu      sync.Mutex
	answers []error
	got     []arrival
	links   map[core.NodeID][]bool // each node's link notifications: up?
	fails   []error
}

type arrival struct {
	node core.NodeID
	at   core.Time // Env.Now in the delivery's activation
	pkt  core.Packet
}

// probe is node id's protocol: it runs each act it is handed and records
// every delivery and link notification.
type probe struct {
	id core.NodeID
	r  *run
}

func (p *probe) Init(core.Env) {}

func (p *probe) Deliver(env core.Env, pkt core.Packet) {
	a, isAct := pkt.Payload.(act)
	var err error
	if isAct {
		err = a(env, pkt)
	}
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	if isAct {
		p.r.answers = append(p.r.answers, err)
	}
	if !pkt.Injected {
		p.r.got = append(p.r.got, arrival{env.ID(), env.Now(), pkt})
	}
}

func (p *probe) LinkEvent(env core.Env, port core.Port) {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	p.r.links[env.ID()] = append(p.r.links[env.ID()], port.Up)
}

// exec builds g on e under cfg with a probe at every node, hands body the
// run, and returns its outcome and failed expectations.
func exec(e Engine, g *graph.Graph, cfg Config, body func(r *run)) (Outcome, error) {
	r := &run{e: e, g: g, trace: trace.NewBuffer(), links: map[core.NodeID][]bool{}}
	cfg.Trace = r.trace
	net, err := e.New(g, func(id core.NodeID) core.Protocol { return &probe{id, r} }, cfg)
	if err != nil {
		return nil, err
	}
	defer net.Shutdown()
	r.Net = net
	body(r)
	m := r.Metrics()
	m.FinishTime = 0
	out := Outcome{fmt.Sprintf("%+v", fields(m))}
	for _, err := range r.answers {
		out = append(out, fmt.Sprintf("refused %v", err != nil)) // the sentinel is the row's to check
	}
	for _, a := range r.got {
		payload := a.pkt.Payload
		if _, ok := payload.(act); ok {
			payload = "act"
		}
		out = append(out, fmt.Sprintf("node %d arrived on %d forwarded on %d remaining %v reverse %v payload %#v",
			a.node, a.pkt.ArrivedOn, a.pkt.ForwardedOn, a.pkt.Remaining, a.pkt.Reverse, payload))
	}
	slices.Sort(out[1:])
	return out, errors.Join(r.fails...)
}

// fields prints every field of core.Metrics, not its String.
type fields core.Metrics

// row is the Row that execs body on g under cfg.
func row(g *graph.Graph, cfg Config, body func(r *run)) Row {
	return func(e Engine) (Outcome, error) { return exec(e, g, cfg, body) }
}

func (r *run) that(ok bool, format string, args ...any) {
	if !ok {
		r.fails = append(r.fails, fmt.Errorf(format, args...))
	}
}

func (r *run) quiet() {
	err := r.Quiesce()
	r.that(err == nil, "run: %v", err)
}

// metrics checks core.Metrics fields, given as name, value pairs.
func (r *run) metrics(kv ...any) {
	m := reflect.ValueOf(r.Metrics())
	for i := 0; i < len(kv); i += 2 {
		got := m.FieldByName(kv[i].(string)).Int()
		r.that(got == int64(kv[i+1].(int)), "%s = %d, want %d", kv[i], got, kv[i+1])
	}
}

// at is what node v was handed, in order.
func (r *run) at(v core.NodeID) (got []arrival) {
	for _, a := range r.got {
		if a.node == v {
			got = append(got, a)
		}
	}
	return got
}

// refused checks that call panics with the engine's refusal naming what.
func (r *run) refused(call func(), what string) {
	if r.e.Preconditions == "" {
		return
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		call()
		return ""
	}()
	r.that(strings.HasPrefix(msg, r.e.Preconditions+": ") && strings.Contains(msg, what), "panic %q, want %s's naming %q", msg, r.e.Preconditions, what)
}
