package election

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// domPair is one origin's bookkeeping held twice: the flat domain and the
// map model of reference_test.go.
type domPair struct {
	d *domain
	m *mapDomain
	// shipped is the domain's member list as it stood when it was captured;
	// nil while the origin is live.
	shipped []member
}

// scriptCoverage records which regimes a batch of scripts reached.
type scriptCoverage struct {
	table, regrow, degraded, rejoined, grafted bool
}

// domainScript interprets data as a sequence of start / attach / merge /
// route / smallest-OUT operations over a universe of at most 64 nodes,
// applies each to the flat domain and to the map model, and compares
// everything observable after every step.
type domainScript struct {
	t     testing.TB
	data  []byte
	u     int // universe size
	pairs []*domPair
	// touched is what the current step wrote or read; the full comparison
	// runs on these, the written-after-capture check on every pair.
	touched []*domPair
	cov     *scriptCoverage
}

func (s *domainScript) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *domainScript) node() core.NodeID { return core.NodeID(s.next() % s.u) }

// live returns the k-th (mod count) origin not yet captured, or nil.
func (s *domainScript) live(k int) *domPair {
	var live []*domPair
	for _, p := range s.pairs {
		if p.shipped == nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[k%len(live)]
}

func runDomainScript(t testing.TB, data []byte, cov *scriptCoverage) {
	s := &domainScript{t: t, data: data, cov: cov}
	s.u = 16 + s.next()%49
	for len(s.data) > 0 {
		s.touched = s.touched[:0]
		switch op := s.next() % 8; op {
		case 0, 1:
			s.start()
		case 2:
			s.attach()
		case 3, 4, 5:
			s.merge()
		case 6:
			if len(s.pairs) > 0 {
				p := s.pairs[s.next()%len(s.pairs)]
				s.touched = append(s.touched, p)
				x := s.node()
				tail := anr.Direct([]anr.ID{anr.ID(s.next() + 1)})
				got, gerr := p.d.routeThen(x, tail)
				want, werr := p.m.tree.route(x)
				if (gerr == nil) != (werr == nil) || gerr == nil && !reflect.DeepEqual(got, anr.Concat(want, tail)) {
					t.Fatalf("routeThen(%d) = %v, %v; model route %v, %v", x, got, gerr, want, werr)
				}
			}
		case 7:
			// Drain the heap's lazily deleted prefix between other steps.
			if p := s.live(s.next()); p != nil {
				s.touched = append(s.touched, p)
				p.d.minOut()
			}
		}
		s.check()
	}
}

func (s *domainScript) start() {
	if len(s.pairs) >= 16 {
		return
	}
	root := s.node()
	var ports []core.Port
	for i, k := 0, s.next()%10; i < k; i++ {
		b := s.next()
		ports = append(ports, core.Port{
			Local:    anr.ID(i + 1),
			Remote:   s.node(),
			RemoteID: anr.ID(b%7 + 1),
			Up:       b%8 != 7,
		})
	}
	d := &domain{}
	derr := d.start(root, ports)
	m, merr := newMapDomain(root, ports)
	if (derr == nil) != (merr == nil) {
		s.t.Fatalf("start(%d, %v): %v, model %v", root, ports, derr, merr)
	}
	if derr == nil {
		s.pairs = append(s.pairs, &domPair{d: d, m: m})
		s.touched = append(s.touched, s.pairs[len(s.pairs)-1])
	}
}

func (s *domainScript) attach() {
	p := s.live(s.next())
	if p == nil {
		return
	}
	s.touched = append(s.touched, p)
	e := treeEntry{Node: s.node(), Parent: s.node(), Down: anr.ID(s.next() + 1), Up: anr.ID(s.next() + 1)}
	pos, known := p.d.find(e.Node)
	offTree := known && p.d.ents[pos].flags&inTree == 0
	derr, merr := p.d.attach(e), p.m.tree.attach(e)
	if (derr == nil) != (merr == nil) {
		s.t.Fatalf("attach(%+v): %v, model %v", e, derr, merr)
	}
	if derr == nil && offTree {
		s.cov.rejoined = true
	}
}

func (s *domainScript) merge() {
	a, b := s.live(s.next()), s.live(s.next())
	if a == nil || a == b {
		return
	}
	s.touched = append(s.touched, a, b)
	// The entry node: usually one both trees hold (the protocol's case),
	// sometimes any node at all (the degraded case, either side missing).
	o := s.node()
	if pick := s.next(); pick%4 != 0 {
		var both []core.NodeID
		for x := core.NodeID(0); int(x) < s.u; x++ {
			if a.m.tree.has(x) && b.m.tree.has(x) {
				both = append(both, x)
			}
		}
		if len(both) > 0 {
			o = both[pick%len(both)]
		}
	}
	b.shipped = slices.Clone(b.d.ents)
	got, err := a.d.merge(b.d, o)
	if err != nil {
		s.t.Fatal(err)
	}
	want := a.m.merge(b.m, o)
	if got != want {
		s.t.Fatalf("merge of %d into %d at %d: grafted = %v, model %v", b.d.root(), a.d.root(), o, got, want)
	}
	if got {
		s.cov.grafted = true
	} else {
		s.cov.degraded = true
	}
}

// check compares every captured domain with what it shipped, and the pairs
// the step touched with their models.
func (s *domainScript) check() {
	t := s.t
	for _, p := range s.pairs {
		if p.shipped != nil && !slices.Equal(p.d.ents, p.shipped) {
			t.Fatalf("captured domain %d was written after capture", p.d.root())
		}
	}
	for _, p := range s.touched {
		d, m := p.d, p.m
		root := d.root()
		if len(d.ents) > core.ScanMax {
			s.cov.table = true
		}
		if d.idx.Slots() > 4*core.ScanMax {
			s.cov.regrow = true
		}
		if d.nIn != len(m.in) || d.nOut != len(m.out) {
			t.Fatalf("domain %d: |IN| = %d, |OUT| = %d; model %d, %d", root, d.nIn, d.nOut, len(m.in), len(m.out))
		}
		in, out := d.members()
		if !slices.Equal(in, sortedSet(m.in)) || !slices.Equal(out, sortedSet(m.out)) {
			t.Fatalf("domain %d: IN %v OUT %v; model IN %v OUT %v", root, in, out, sortedSet(m.in), sortedSet(m.out))
		}
		if p.shipped == nil { // minOut tidies the heap, and a captured domain is read-only
			gx, gok := d.minOut()
			wx, wok := m.minOut()
			if gx != wx || gok != wok {
				t.Fatalf("domain %d: smallest OUT = %d, %v; model %d, %v", root, gx, gok, wx, wok)
			}
		}
		for x := core.NodeID(-1); int(x) <= s.u; x++ {
			if d.has(x) != m.tree.has(x) {
				t.Fatalf("domain %d: has(%d) = %v, model %v", root, x, d.has(x), m.tree.has(x))
			}
			got, gerr := d.route(x)
			want, werr := m.tree.route(x)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("domain %d: route(%d) = %v, %v; model %v, %v", root, x, got, gerr, want, werr)
			}
		}
		if got, want := d.orphans(), m.orphans(); !slices.Equal(got, want) {
			t.Fatalf("domain %d: orphans %v, model %v", root, got, want)
		}
		plan, routes := d.announcePlan(), m.announceRoutes()
		for x := core.NodeID(-1); int(x) <= s.u+1; x++ {
			if got, want := plan.For(x), relayLoop(routes, x); len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("domain %d: node %d announces over %v, model %v", root, x, got, want)
			}
		}
		// The list is its own wire form: every tree member sits behind its
		// parent, and its parent position names that parent.
		for i, e := range d.ents[1:] {
			if e.flags&inTree == 0 {
				continue
			}
			if int(e.ppos) > i || d.ents[e.ppos].Node != e.Parent || d.ents[e.ppos].flags&inTree == 0 {
				t.Fatalf("domain %d: member %d at %d has parent %d at %d", root, e.Node, i+1, e.Parent, e.ppos)
			}
		}
	}
}

// randomScript draws a script that leans toward growth: many starts first,
// then mostly merges, so single domains cross the scan→table threshold and
// the first table regrow.
func randomScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+rng.Intn(900))
	rng.Read(data)
	if seed%2 == 0 {
		data[0] = 48 // the full 64-node universe
	}
	return data
}

// TestDomainMatchesMapModel drives the flat domain and the map model through
// random scripts and requires that, between them, the scripts reached every
// regime the structure has.
func TestDomainMatchesMapModel(t *testing.T) {
	var cov scriptCoverage
	for seed := int64(1); seed <= 120; seed++ {
		runDomainScript(t, randomScript(seed), &cov)
	}
	if want := (scriptCoverage{true, true, true, true, true}); cov != want {
		t.Fatalf("scripts reached %+v, want every regime", cov)
	}
}

// FuzzDomain is the same differential under the fuzzer: the flat per-origin
// domain against the map-based bookkeeping it replaced, over fuzzer-written
// start/attach/merge/route scripts (minimizing capped in CI as for FuzzSpine).
func FuzzDomain(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(randomScript(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDomainScript(t, data, &scriptCoverage{})
	})
}

// TestPosTable checks a domain's node index against a map across several
// regrows, with members re-appended (their old position vacated) and misses.
func TestPosTable(t *testing.T) {
	var d domain
	want := map[core.NodeID]int32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := core.NodeID(rng.Intn(4096))
		from, known := d.find(x)
		if known {
			d.ents[from] = member{treeEntry: treeEntry{Node: core.None}, ppos: -1}
		} else {
			from = -1
		}
		want[x] = d.add(member{treeEntry: treeEntry{Node: x}}, from)
		if len(d.ents) > core.ScanMax && 2*len(want) > d.idx.Slots() {
			t.Fatalf("after %d adds: %d nodes over %d slots, want load <= 1/2", i+1, len(want), d.idx.Slots())
		}
	}
	for x := core.NodeID(-2); x < 4100; x++ {
		got, ok := d.find(x)
		if w, wok := want[x]; ok != wok || ok && got != w {
			t.Fatalf("find(%d) = %d, %v; want %d, %v", x, got, ok, w, wok)
		}
	}
}
