package integration_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fastnet/internal/runtimetest"
)

// docFiles are the documents that describe the code as it is. CHANGES.md,
// docs/PERF-LOG.md and ROADMAP.md are history: they name what existed when
// they were written, and are not checked.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/MODEL.md", "docs/PERF.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// bareName is a package-qualified name a Go comment mentions without
	// backticks: (*pkg.T).M, pkg.Name or pkg.Name.Member.
	bareName  = regexp.MustCompile(`\(\*?[a-z]\w*\.[A-Z]\w*\)\.\w+|\b[a-z]\w*\.[A-Z]\w*(?:\.\w+)?`)
	callArgs  = regexp.MustCompile(`\([^()]*\)$`)
	indexArgs = regexp.MustCompile(`\[[^\[\]]*\]$`)
	methodRef = regexp.MustCompile(`^\(\*?([a-z]\w*)\.([A-Z]\w*)\)\.(\w+)$`)
	pkgRef    = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?$`)
	typeRef   = regexp.MustCompile(`^([A-Z]\w*)\.(\w+)$`)
	testFunc  = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	// rowRef names a row of the runtime contract, as docs/MODEL.md §9 does.
	rowRef = regexp.MustCompile(`^runtimetest\.Rows\["([^"]+)"\]$`)
)

// TestDocsNameRealCode keeps the documents from naming code that does not
// exist. In README.md, DESIGN.md, EXPERIMENTS.md, docs/MODEL.md and
// docs/PERF.md, every backticked Go name of one of the forms
//
//	pkg.Name   pkg.Name.Member   (*pkg.T).M   T.M
//
// must resolve against the non-test declarations of internal/<pkg> (a
// trailing index and a trailing argument list are ignored; T.M is checked
// when T is an exported type of exactly one package of internal/).
// pkg.TestX, pkg.BenchmarkX and pkg.FuzzX resolve against the package's
// _test.go files instead. The comments of non-test Go files outside bench/
// are held to the same rule, for backticked names and for bare
// package-qualified ones. Every row of the two tables in docs/MODEL.md §9
// names a row of the runtime contract, runtimetest.Rows["name"], which that
// map must hold.
func TestDocsNameRealCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ix := newDocIndex(t, root)
	for ref, named := range map[string]bool{
		"DB.seen[u]": false, "DB.ents[i]": true, "(*topology.DB).View()": true,
		`runtimetest.Rows["no-such-row"]`: false, `runtimetest.Rows["env"]`: true,
	} {
		if why := ix.check(ref); (why == "") != named {
			t.Errorf("the checker finds `%s` naming code %v (%s), want %v", ref, why == "", why, named)
		}
	}
	bad := 0
	report := func(where, ref string) {
		if why := ix.check(ref); why != "" {
			bad++
			t.Errorf("%s: `%s` names no code: %s", where, ref, why)
		}
	}
	for _, doc := range docFiles {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Fatal(err)
		}
		clauses := false // in docs/MODEL.md's "Where each clause lives"
		for i, line := range strings.Split(string(b), "\n") {
			clauses = clauses && !strings.HasPrefix(line, "## ") || line == "### Where each clause lives"
			rows := 0
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				report(fmt.Sprintf("%s:%d", doc, i+1), m[1])
				if rowRef.MatchString(m[1]) {
					rows++
				}
			}
			if clauses && rows == 0 && strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| Clause") && !strings.HasPrefix(line, "| ---") {
				bad++
				t.Errorf("%s:%d: a clause that names no runtimetest.Rows row", doc, i+1)
			}
		}
	}
	for _, dir := range ix.m.goDirs(t) {
		if strings.HasPrefix(dir, filepath.Join(root, "bench")) {
			continue
		}
		for _, f := range ix.m.pkgs[dir].files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := ix.m.fset.Position(c.Slash)
					where := fmt.Sprintf("%s:%d", strings.TrimPrefix(pos.Filename, root+string(filepath.Separator)), pos.Line)
					for _, m := range codeSpan.FindAllStringSubmatch(c.Text, -1) {
						report(where, m[1])
					}
					for _, ref := range bareName.FindAllString(c.Text, -1) {
						report(where, ref)
					}
				}
			}
		}
	}
	t.Logf("%d names that resolve to nothing", bad)
}

// docIndex is what a documented name is resolved against.
type docIndex struct {
	m      *module
	pkgs   map[string]*types.Package   // the non-test code of internal/<name>
	tests  map[string]map[string]bool  // internal/<name>: the funcs its _test.go files declare
	owners map[string][]*types.Package // exported type name: the packages declaring one
}

func newDocIndex(t *testing.T, root string) *docIndex {
	ix := &docIndex{
		m:      newModule(root),
		pkgs:   map[string]*types.Package{},
		tests:  map[string]map[string]bool{},
		owners: map[string][]*types.Package{},
	}
	for _, dir := range ix.m.goDirs(t) {
		p, err := ix.m.load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(dir) != filepath.Join(root, "internal") {
			continue
		}
		ix.pkgs[filepath.Base(dir)] = p.types
		for _, name := range p.types.Scope().Names() {
			if obj := p.types.Scope().Lookup(name); obj.Exported() && namedType(obj) != nil {
				ix.owners[name] = append(ix.owners[name], p.types)
			}
		}
	}
	tests, err := filepath.Glob(filepath.Join(root, "internal", "*", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if ix.tests[pkg] == nil {
			ix.tests[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				ix.tests[pkg][fn.Name.Name] = true
			}
		}
	}
	return ix
}

// check returns why ref names nothing, or "" when it resolves or is not a Go
// name of this module's packages (metric names, file names, other packages).
func (ix *docIndex) check(ref string) string {
	if m := rowRef.FindStringSubmatch(ref); m != nil && runtimetest.Rows[m[1]] == nil {
		return fmt.Sprintf("runtimetest.Rows holds no row %q", m[1])
	}
	for _, suffix := range []*regexp.Regexp{indexArgs, callArgs} {
		if loc := suffix.FindStringIndex(ref); loc != nil {
			ref = ref[:loc[0]]
		}
	}
	if m := methodRef.FindStringSubmatch(ref); m != nil {
		return ix.member(m[1], m[2], m[3])
	}
	if m := pkgRef.FindStringSubmatch(ref); m != nil {
		if m[3] != "" {
			return ix.member(m[1], m[2], m[3])
		}
		return ix.object(m[1], m[2])
	}
	if m := typeRef.FindStringSubmatch(ref); m != nil {
		if owners := ix.owners[m[1]]; len(owners) == 1 {
			return ix.member(owners[0].Name(), m[1], m[2])
		}
	}
	return ""
}

// object resolves pkg.name.
func (ix *docIndex) object(pkg, name string) string {
	funcs, isPkg := ix.tests[pkg]
	p := ix.pkgs[pkg]
	switch {
	case p == nil && !isPkg:
		return "" // not a package of internal/
	case testFunc.MatchString(name):
		if !funcs[name] {
			return fmt.Sprintf("the _test.go files of internal/%s declare no %s", pkg, name)
		}
	case p == nil:
		return fmt.Sprintf("internal/%s has only _test.go files", pkg)
	case p.Scope().Lookup(name) == nil:
		return fmt.Sprintf("package %s declares no %s", pkg, name)
	}
	return ""
}

// member resolves pkg.name.member: a field or method of the type (or of the
// type of the variable) pkg.name.
func (ix *docIndex) member(pkg, name, member string) string {
	p := ix.pkgs[pkg]
	if why := ix.object(pkg, name); why != "" || p == nil || testFunc.MatchString(name) {
		return why
	}
	if obj, _, _ := types.LookupFieldOrMethod(p.Scope().Lookup(name).Type(), true, p, member); obj == nil {
		return fmt.Sprintf("%s.%s has no field or method %s", pkg, name, member)
	}
	return ""
}
