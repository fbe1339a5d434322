package integration_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported names of internal/* that no non-test code
// outside their package uses and that stay exported all the same, each with
// its reason ("pkg.*" keeps a whole package). Everything else
// TestNoDeadExports finds is deleted, unexported or moved into the test that
// uses it.
var keptExports = map[string]string{
	// Reference implementations, and what tests read the product through to
	// compare it against them.
	"core.WalkRoute":                "oracle: the bare link-by-link walk that routes built by election, pif and topology are replayed on",
	"paths.Routes":                  "oracle: the per-path route list paths.Fanout is checked against (TestFanoutMatchesRelayLoop, the election's map model)",
	"paths.Path":                    "with paths.Routes: the path it emits",
	"(paths.Path).Start":            "with paths.Routes: the node a path is relayed from",
	"(*paths.Fanout).For":           "with paths.Routes: the headers a plan holds for one node, read to compare the two",
	"trace.PerNode":                 "oracle: the per-node projection the sharded and serial engines must agree on",
	"(*graph.Graph).Equal":          "oracle: a database's view against the ground-truth graph, and cached against cold views",
	"(*topology.DB).View":           "with Graph.Equal: the graph a node believes in",
	"(*topology.DB).LinkID":         "how a test lays a Fanout over a node's database, as the maintainer does internally",
	"(*topology.DB).BFSTree":        "with DB.LinkID: the tree that Fanout is built from",
	"(*paths.Decomposition).Rounds": "Theorem 2's measure (rounds <= log2 n), asserted by the paths tests and reported by BenchmarkTreeLabelDecompose",
	// The draws MsgFaults.Cross makes, which sim's reference engine makes
	// one by one so that it stays independent of the function it checks.
	"core.FaultCorrupt":               "oracle: the reference engine's own switch over what a fault does",
	"core.FaultJitter":                "oracle: as FaultCorrupt",
	"core.FaultReorder":               "oracle: as FaultCorrupt",
	"core.FaultSlowdown":              "oracle: as FaultCorrupt",
	"(*core.MsgFaults).Roll":          "oracle: the reference engine's roll, drawn apart from the fault's own draw",
	"(*core.MsgFaults).ReorderDelay":  "oracle: the reference engine's reorder draw",
	"(*core.MsgFaults).SlowdownDelay": "oracle: the reference engine's slowdown draw",
	"core.CorruptPayload":             "oracle: the reference engine's corruption draw",

	// The runtime contract (docs/MODEL.md §9), which only tests run.
	"runtimetest.*": "conformance rows both runtimes' tests run; the fstest pattern",

	// Driver hooks: the soak scripts node failures link by link through
	// core.Runtime's InjectLink; tests script them by name.
	"(*sim.Network).CrashNode":   "driver hook: every link of a node down at once, scripted by the detector and robustness tests",
	"(*sim.Network).RestoreNode": "driver hook: the reverse of CrashNode",

	// The paper's use of what the records carry, waiting for its consumer.
	"(*topology.DB).RouteMinLoad": "§3's use of the link loads the records carry: the load-weighted route; BenchmarkDBRouteMinLoad{Warm,Cold} time it",

	// Reached through values rather than by name.
	"(*core.HandlerError).Unwrap":        "errors.Is and errors.As call it through an interface the standard library never names: what lets a caller test a failed run for the refusal behind it",
	"core.Corruptible":                   "the interface reliable's frame and ack satisfy so that a corruption fault leaves something a checksum can reject; core asserts it on payloads",
	"calls.StatusPending":                "enumerator of calls.Status, which callers receive from Manager.Status",
	"calls.StatusClosed":                 "enumerator of calls.Status, which callers receive from Manager.Status",
	"election.StateNotLeader":            "enumerator of election.State, which callers receive from Protocol.State",
	"(*graph.Graph).AddEdge":             "the other half of graph.New: how anything but a generator builds a graph (the partition tests' hand-made fabrics)",
	"(*graph.Graph).Distances":           "hop distances from one root, which Connected and Diameter fold; the radius test reads them unfolded",
	"(sim.SchedStats).LaneHitRate":       "derived ratio SchedStats.String prints; the heap-bypass smoke asserts it >= 0.95",
	"(sim.SchedStats).FusedHopsPerEvent": "derived ratio SchedStats.String prints; the cut-through tests assert it",
}

// TestNoDeadExports keeps internal/* free of dead surface. Everything lives
// under internal/, so an exported name that no other package of the module
// (nor bench/, which is frozen and must keep compiling) uses from non-test
// code is either dead or needlessly exported. The scan type-checks the
// module and bench/ with the standard library alone and fails for every
// exported package-level func, var, const and type of internal/*, and every
// exported method of a package-level type, that has no such use, unless
//
//   - it is a method through which a type of the module satisfies an
//     interface some package declares (Deliver, String, heap.Interface,
//     core.Env, trace.Sink, ...);
//   - it is a sentinel error or an error type its own package returns;
//   - it is in keptExports.
//
// A type counts as used wherever a value of it is, or a function that takes
// or returns one.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m := newModule(root)
	var internal []*modPkg
	for _, dir := range m.goDirs(t) {
		p, err := m.load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(p.types.Path(), "fastnet/internal/") {
			internal = append(internal, p)
		}
	}

	// Every use of an object from a file of another package (sentinel errors:
	// from any file), and every interface any loaded package declares — the
	// standard library's included, and error, which no package does.
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{errorType.Underlying().(*types.Interface)}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && (obj.Pkg() != p.types || isSentinel(obj)) {
				used[obj] = true
			}
		}
		for _, tv := range p.info.Types {
			eachNamed(tv.Type, func(n *types.Named) {
				if n.Obj().Pkg() != p.types {
					used[n.Obj()] = true
				}
			})
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if named := namedType(p.Scope().Lookup(name)); named != nil {
				if it, ok := named.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	// The methods through which a type of the module satisfies one of those
	// interfaces, found in its method set so that a method promoted from an
	// embedded struct counts for the struct that declares it.
	for _, p := range m.pkgs {
		for _, name := range p.types.Scope().Names() {
			named := namedType(p.types.Scope().Lookup(name))
			if named == nil || types.IsInterface(named) {
				continue
			}
			for _, T := range []types.Type{named, types.NewPointer(named)} {
				mset := types.NewMethodSet(T)
				for _, it := range ifaces {
					if it.NumMethods() == 0 || !types.Implements(T, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
							used[sel.Obj()] = true
						}
					}
				}
			}
		}
	}

	total, unused := 0, 0
	stale := map[string]bool{}
	for name := range keptExports {
		stale[name] = true
	}
	check := func(p *modPkg, name string, obj types.Object) {
		total++
		if used[obj] {
			return
		}
		for _, kept := range []string{name, p.types.Name() + ".*"} {
			if _, ok := keptExports[kept]; ok {
				delete(stale, kept)
				return
			}
		}
		unused++
		t.Errorf("%s: %s has no use outside package %s in non-test code: delete it, unexport it, or list it in keptExports with the reason",
			m.fset.Position(obj.Pos()), name, p.types.Name())
	}
	sort.Slice(internal, func(i, j int) bool { return internal[i].types.Path() < internal[j].types.Path() })
	for _, p := range internal {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(p, p.types.Name()+"."+name, obj)
			}
			named := namedType(obj)
			if named == nil || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() {
					continue
				}
				recv := p.types.Name() + "." + name
				if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "*" + recv
				}
				check(p, "("+recv+")."+fn.Name(), fn)
			}
		}
	}
	for name := range stale {
		t.Errorf("keptExports lists %s, which is gone or is used outside its package now: drop the line", name)
	}
	t.Logf("%d exported names in internal/*, %d unused outside their package, %d kept by the list", total, unused, len(keptExports))
}

// maxPanics is how many panic calls non-test code outside bench/ may hold.
// A handler that cannot continue calls core.Env.Fail, which fails the run;
// what remains is a caller breaking a documented precondition, or a state
// the code rules out.
const maxPanics = 10

// TestPanicSitesRatchet holds the panic calls of non-test code outside bench/
// to maxPanics, and requires each to have, on the line directly above it, a
// comment starting "precondition:" (the caller broke a documented rule; a
// test reaches it) or "unreachable:" (the code rules the state out, and says
// why).
func TestPanicSitesRatchet(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, dir := range newModule(root).goDirs(t) {
		if rel, _ := filepath.Rel(root, dir); rel == "bench" || strings.HasPrefix(rel, "bench"+string(filepath.Separator)) {
			continue
		}
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				above := map[int]string{} // the line a comment group ends on -> its text
				for _, cg := range f.Comments {
					above[fset.Position(cg.End()).Line] = cg.Text()
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "panic" {
						return true
					}
					pos := fset.Position(call.Pos())
					sites = append(sites, pos.String())
					if c := above[pos.Line-1]; !strings.HasPrefix(c, "precondition:") && !strings.HasPrefix(c, "unreachable:") {
						t.Errorf("%s: panic without a \"// precondition:\" or \"// unreachable:\" comment directly above it", pos)
					}
					return true
				})
			}
		}
	}
	if len(sites) > maxPanics {
		t.Errorf("%d panic calls in non-test code outside bench/, want <= %d: a handler that cannot continue calls core.Env.Fail\n%s",
			len(sites), maxPanics, strings.Join(sites, "\n"))
	}
	t.Logf("%d panic calls, at most %d allowed", len(sites), maxPanics)
}

// namedType is the non-generic named type obj declares, or nil.
func namedType(obj types.Object) *types.Named {
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
			return named
		}
	}
	return nil
}

// isSentinel reports whether obj is a package-level error value or an error
// type. Either is reached through the errors its package returns, so a use
// inside the package is a use: it is how a caller names that outcome
// (errors.Is, errors.As), as tests do.
func isSentinel(obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Var:
		return o.Parent() == o.Pkg().Scope() && types.Identical(o.Type(), errorType)
	case *types.TypeName:
		it := errorType.Underlying().(*types.Interface)
		return types.Implements(o.Type(), it) || types.Implements(types.NewPointer(o.Type()), it)
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

// eachNamed calls fn for every named type a type expression is built from.
func eachNamed(t types.Type, fn func(*types.Named)) {
	switch t := t.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			fn(t)
		}
	case *types.Pointer:
		eachNamed(t.Elem(), fn)
	case *types.Slice:
		eachNamed(t.Elem(), fn)
	case *types.Array:
		eachNamed(t.Elem(), fn)
	case *types.Chan:
		eachNamed(t.Elem(), fn)
	case *types.Map:
		eachNamed(t.Key(), fn)
		eachNamed(t.Elem(), fn)
	case *types.Signature:
		eachNamed(t.Params(), fn)
		eachNamed(t.Results(), fn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			eachNamed(t.At(i).Type(), fn)
		}
	}
}

// module loads the non-test files of the packages of this module and of
// bench/ (module fastnet/bench, which replaces fastnet with ..), each once,
// resolving their imports of each other itself so that one object stands for
// one declaration, and leaving the standard library to the source importer.
type module struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modPkg // by directory
}

type modPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File // with their comments, which TestDocsNameRealCode reads
}

func newModule(root string) *module {
	fset := token.NewFileSet()
	return &module{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modPkg{}}
}

// goDirs lists the directories under the root that hold a non-test Go file.
func (m *module) goDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(m.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != m.root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, "fastnet/"); ok {
		p, err := m.load(filepath.Join(m.root, filepath.FromSlash(rest)))
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return m.std.Import(path)
}

func (m *module) load(dir string) (*modPkg, error) {
	if p, ok := m.pkgs[dir]; ok {
		return p, nil
	}
	parsed, err := parser.ParseDir(m.fset, dir, func(fi os.FileInfo) bool {
		ok, _ := build.Default.MatchFile(dir, fi.Name())
		return ok && !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	p := &modPkg{info: &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			p.files = append(p.files, f)
		}
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check("fastnet/"+filepath.ToSlash(rel), m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[dir] = p
	return p, nil
}
