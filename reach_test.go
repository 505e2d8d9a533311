package vas_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the declarations that no command, example or
// bench/ code reaches but that stay, each with its reason. A key is a
// package name and a declaration ("store.Table.Scan"), or a package name
// alone for the whole package. Entries are roots of the reachability
// graph, so what they call stays too. The list may only shrink:
// TestNoTestOnlyExports fails when an entry is no longer needed.
var testOnlyAllowlist = map[string]string{
	"fault":                        "test support by design: the fault-injecting file system the durability tests drive",
	"vas.Catalog.Append":           "documented library API (README \"Live ingest & compaction\")",
	"vas.Catalog.SnapshotErr":      "documented library API (docs/RESILIENCE.md, docs/METRICS.md)",
	"store.Table.Scan":             "reference implementation: the oracle of the ScanRect ≡ Scan property tests",
	"store.Table.Column":           "reference implementation: the raw columns the store's tests build their naive models from",
	"store.RowIndices":             "reference implementation: builds the expected row sets the store's tests compare against",
	"store.RowSet.Contains":        "reference implementation: the membership test the store's tests check result rows with",
	"proximity.Func.Pair":          "reference implementation: the scalar kernel PairRow must equal",
	"geom.ExactMaxPairwiseDist":    "reference implementation: the exact diameter MaxPairwiseDist's bound is checked against",
	"vas.GapToOptimal":             "the Theorem 3 check: Interchange's objective against the exact optimum",
	"vas.Interchange.Replacements": "TestFig10VariantsAgree's non-vacuity guard",
	"snapshot.SetFS":               "the fault-injection seam until the file system is passed as a value",
}

// TestNoTestOnlyExports enforces "no surface that only tests call". It
// type-checks every non-test file of this module and of bench/, builds
// a graph with one node per top-level declaration (method, func, type,
// var, const) and an edge for every object a declaration uses, and
// propagates liveness from the roots: main and init, every declaration
// under cmd/, examples/ and bench/, and every method through which a
// live type (or a live type embedding it) implements an interface. A
// declaration reachable from no root is reported unless it is
// allowlisted above.
func TestNoTestOnlyExports(t *testing.T) {
	g := loadReachGraph(t)

	g.propagate(nil)
	needed := map[string]bool{}
	for _, n := range g.nodes {
		if !n.live {
			for _, key := range []string{n.pkg, n.name} {
				if _, ok := testOnlyAllowlist[key]; ok {
					needed[key] = true
				}
			}
		}
	}
	keys := make([]string, 0, len(testOnlyAllowlist))
	for key := range testOnlyAllowlist {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !needed[key] {
			t.Errorf("allowlist entry %q is no longer needed: delete it", key)
		}
	}

	g.propagate(testOnlyAllowlist)
	var dead []*reachNode
	for _, n := range g.nodes {
		if !n.live {
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, n := range dead {
		kind := "unexported"
		if n.obj.Exported() {
			kind = "exported"
		}
		t.Errorf("%s:%d: %s (%s) is reachable from no command, example or bench/ code", n.pos.Filename, n.pos.Line, n.name, kind)
	}
}

type reachNode struct {
	obj  types.Object
	pkg  string // package name, the allowlist's whole-package key
	name string // "pkg.Name" or "pkg.Recv.Method"
	pos  token.Position
	root bool
	uses []types.Object
	live bool
}

type reachGraph struct {
	nodes  map[types.Object]*reachNode
	ifaces []*types.Interface
}

// loadReachGraph parses and type-checks the module from source. Imports
// of this module resolve to its directories; the standard library comes
// from the toolchain's export data.
func loadReachGraph(t *testing.T) *reachGraph {
	t.Helper()
	l := &reachLoader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		dirs: map[string]string{},
		pkgs: map[string]*reachPkg{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ipath := "repro"
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		l.dirs[ipath] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for ipath := range l.dirs {
		paths = append(paths, ipath)
	}
	sort.Strings(paths)
	for _, ipath := range paths {
		if _, err := l.load(ipath); err != nil {
			t.Fatal(err)
		}
	}

	g := &reachGraph{nodes: map[types.Object]*reachNode{}}
	ifaces := map[*types.Interface]bool{}
	for _, name := range []string{"error", "fmt.Stringer", "net/http.Handler", "net/http.ResponseWriter", "io.Reader", "io.Writer", "io.Closer", "sort.Interface"} {
		ifaces[l.lookupStd(t, name)] = true
	}
	for _, ipath := range paths {
		p := l.pkgs[ipath]
		if p == nil {
			continue
		}
		for _, obj := range p.info.Uses {
			collectIfaces(obj.Type(), ifaces)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				collectIfaces(obj.Type(), ifaces)
			}
		}
		g.addPackage(l.fset, p)
	}
	for it := range ifaces {
		g.ifaces = append(g.ifaces, it)
	}
	return g
}

type reachPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*reachPkg
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s has no Go files", path)
	}
	return p.types, nil
}

// load type-checks the package at ipath once; a directory without
// non-test Go files for this platform yields nil.
func (l *reachLoader) load(ipath string) (*reachPkg, error) {
	if p, ok := l.pkgs[ipath]; ok {
		return p, nil
	}
	dir := l.dirs[ipath]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{path: ipath}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		l.pkgs[ipath] = nil
		return nil, nil
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(ipath, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ipath, err)
	}
	l.pkgs[ipath] = p
	return p, nil
}

func (l *reachLoader) lookupStd(t *testing.T, qualified string) *types.Interface {
	if !strings.Contains(qualified, ".") {
		return types.Universe.Lookup(qualified).Type().Underlying().(*types.Interface)
	}
	i := strings.LastIndex(qualified, ".")
	pkg, err := l.std.Import(qualified[:i])
	if err != nil {
		t.Fatal(err)
	}
	return pkg.Scope().Lookup(qualified[i+1:]).Type().Underlying().(*types.Interface)
}

// collectIfaces adds the method-bearing interfaces that t names, takes
// or returns.
func collectIfaces(t types.Type, into map[*types.Interface]bool) {
	switch u := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectIfaces(tup.At(i).Type(), into)
			}
		}
	case *types.Pointer:
		collectIfaces(u.Elem(), into)
	case *types.Slice:
		collectIfaces(u.Elem(), into)
	default:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			into[it] = true
		}
	}
}

// addPackage makes one node per top-level declaration of p. A method's
// edges come from its signature and body, not its receiver: a type's
// own methods do not make it live.
func (g *reachGraph) addPackage(fset *token.FileSet, p *reachPkg) {
	pkgName := p.types.Name()
	rooted := strings.HasPrefix(p.path, "repro/cmd/") || strings.HasPrefix(p.path, "repro/examples/") || p.path == "repro/bench"
	add := func(id *ast.Ident, bodies ...ast.Node) {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		n := &reachNode{
			obj:  obj,
			pkg:  pkgName,
			name: pkgName + "." + id.Name,
			pos:  fset.Position(id.Pos()),
			root: rooted,
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				n.name = pkgName + "." + recvName(recv.Type()) + "." + id.Name
			} else if id.Name == "init" || (id.Name == "main" && pkgName == "main") {
				n.root = true
			}
		}
		for _, b := range bodies {
			ast.Inspect(b, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if used := p.info.Uses[id]; used != nil {
						n.uses = append(n.uses, used)
					}
				}
				return true
			})
		}
		g.nodes[obj] = n
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					add(d.Name, d.Type)
				} else {
					add(d.Name, d.Type, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Type)
					case *ast.ValueSpec:
						var parts []ast.Node
						if s.Type != nil {
							parts = append(parts, s.Type)
						}
						for _, v := range s.Values {
							parts = append(parts, v)
						}
						for _, id := range s.Names {
							add(id, parts...)
						}
					}
				}
			}
		}
	}
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// propagate marks every node reachable from the roots, and from the
// allowlisted names when extra is non-nil, live; it resets earlier
// marks first.
func (g *reachGraph) propagate(extra map[string]string) {
	var work []*reachNode
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if n := g.nodes[obj]; n != nil && !n.live {
			n.live = true
			work = append(work, n)
		}
	}
	for _, n := range g.nodes {
		n.live = false
	}
	for obj, n := range g.nodes {
		_, byPkg := extra[n.pkg]
		_, byName := extra[n.name]
		if n.root || byPkg || byName {
			mark(obj)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, used := range n.uses {
			mark(used)
		}
		tn, ok := n.obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		// A live type keeps every method, its own or promoted from an
		// embedded type, through which it satisfies an interface.
		ptr := types.NewPointer(tn.Type())
		for _, it := range g.ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					mark(obj)
				}
			}
		}
	}
}
