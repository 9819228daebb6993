package turbosyn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// testOnlyAllowlist names, by types.Func.FullName, the non-test functions
// that may lack a production caller, one function per entry.
var testOnlyAllowlist = map[string]string{
	"turbosyn.Nand":                                  "gate vocabulary of the public API, beside And, Or, Xor, Buf and ConstFunc",
	"turbosyn.Nor":                                   "gate vocabulary of the public API, beside And, Or, Xor, Buf and ConstFunc",
	"turbosyn.Inv":                                   "gate vocabulary of the public API, beside And, Or, Xor, Buf and ConstFunc",
	"turbosyn.Mux":                                   "gate vocabulary of the public API, beside And, Or, Xor, Buf and ConstFunc",
	"turbosyn.FunctionFromBits":                      "gate vocabulary of the public API, beside And, Or, Xor, Buf and ConstFunc",
	"turbosyn/internal/faultinject.Activate":         "test hook: the chaos tests activate injection plans",
	"(*turbosyn/internal/faultinject.Plan).Fired":    "test hook: the chaos tests count fired injection points",
	"(*turbosyn/internal/faultinject.Plan).Hits":     "test hook: the chaos tests count reached injection points",
	"turbosyn/internal/faultinject.RandomizedConfig": "test hook: the randomized chaos test draws its plans",
	"(*turbosyn/internal/decomp.Tree).Eval":          "oracle that core's record-identity test evaluates covers with, across the package line",
	"turbosyn/internal/bench.Pipeline":               "workload of BenchmarkPipeline",
	"turbosyn/internal/bench.LFSR":                   "workload of the parallel golden test",
	"turbosyn/internal/bench.Scale10k":               "workload of BenchmarkScale10k",
}

// stdProtocols are the standard-library interfaces whose methods the
// standard library itself calls on values handed to it (formatting, errors,
// writers, HTTP handlers, sorting, encoding, flags, logging). A method that
// satisfies one of them, or an interface declared in the scanned modules, is
// a root. Interfaces only callers use, such as io.Closer, are deliberately
// absent: a Close method needs a caller of its own.
var stdProtocols = map[string]bool{
	"fmt.Stringer": true, "fmt.Formatter": true,
	"io.Writer": true, "io.Reader": true, "io.WriterTo": true, "io.ReaderFrom": true,
	"net/http.Handler": true, "net/http.Flusher": true,
	"sort.Interface": true, "container/heap.Interface": true,
	"encoding/json.Marshaler": true, "encoding/json.Unmarshaler": true,
	"encoding.TextMarshaler": true, "encoding.TextUnmarshaler": true,
	"flag.Value": true, "log/slog.Handler": true, "log/slog.LogValuer": true,
}

// dynamicMethods are the methods the errors package calls through
// interfaces it declares inside function bodies, which the scan cannot see.
var dynamicMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// TestNoTestOnlyCode type-checks every package of this module and of the
// tsbench module and fails on any function declared outside _test.go files
// that production code cannot reach. The roots are main and init functions,
// package-level initialisers, methods that satisfy an interface declared in
// the modules or listed in stdProtocols, and testOnlyAllowlist; a function
// reached only from tests, or only from other unreachable functions, is
// reported.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	var listed []*listedPackage
	for _, dir := range []string{".", "tsbench"} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		listed = append(listed, pkgs...)
	}
	sc := newScan(listed)
	for _, p := range listed {
		if _, err := sc.check(p.ImportPath); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sc.unreachable(t) {
		t.Errorf("%s (%s) has no production caller", name, sc.fset.Position(sc.byName[name].Pos()))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// scan type-checks the listed packages itself, so that every reference to
// one of their functions resolves to the same *types.Func, and leaves the
// standard library to the source importer.
type scan struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	decls   []*types.Func
	byName  map[string]*types.Func
	edges   map[*types.Func][]*types.Func
	roots   []*types.Func
}

func newScan(listed []*listedPackage) *scan {
	fset := token.NewFileSet()
	sc := &scan{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		byName:  map[string]*types.Func{},
		edges:   map[*types.Func][]*types.Func{},
	}
	for _, p := range listed {
		sc.listed[p.ImportPath] = p
	}
	return sc
}

func (sc *scan) Import(path string) (*types.Package, error) {
	return sc.ImportFrom(path, "", 0)
}

func (sc *scan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := sc.listed[path]; ok {
		return sc.check(path)
	}
	return sc.std.ImportFrom(path, dir, mode)
}

func (sc *scan) check(path string) (*types.Package, error) {
	if pkg, ok := sc.checked[path]; ok {
		return pkg, nil
	}
	p := sc.listed[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(sc.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: sc}
	pkg, err := conf.Check(path, sc.fset, files, info)
	if err != nil {
		return nil, err
	}
	sc.checked[path] = pkg
	for _, f := range files {
		for _, decl := range f.Decls {
			var owner *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				owner = info.Defs[fd.Name].(*types.Func)
				sc.decls = append(sc.decls, owner)
				sc.byName[owner.FullName()] = owner
				if fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					sc.roots = append(sc.roots, owner)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := info.Uses[id].(*types.Func); ok {
					fn = fn.Origin()
					if owner == nil {
						sc.roots = append(sc.roots, fn)
					} else if fn != owner {
						sc.edges[owner] = append(sc.edges[owner], fn)
					}
				}
				return true
			})
		}
	}
	return pkg, nil
}

// interfaces returns error, every named interface type declared at package
// level in the checked packages, and the stdProtocols among their imports.
func (sc *scan) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		_, own := sc.listed[pkg.Path()]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !(own || stdProtocols[pkg.Path()+"."+name]) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range sc.checked {
		visit(pkg)
	}
	return ifaces
}

// satisfiesInterface reports whether m is called through an interface: its
// receiver type implements some interface that has a method of m's name.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	if dynamicMethods[m.Name()] {
		return true
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}

// unreachable returns the full names of the declared functions that no
// production root reaches, sorted. It reports allowlist entries that name no
// function or name one that production code reaches anyway.
func (sc *scan) unreachable(t *testing.T) []string {
	ifaces := sc.interfaces()
	live := map[*types.Func]bool{}
	var mark func(*types.Func)
	mark = func(fn *types.Func) {
		if live[fn] {
			return
		}
		live[fn] = true
		for _, next := range sc.edges[fn] {
			mark(next)
		}
	}
	for _, fn := range sc.roots {
		mark(fn)
	}
	for _, fn := range sc.decls {
		if fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
			mark(fn)
		}
	}
	for key := range testOnlyAllowlist {
		fn := sc.byName[key]
		if fn == nil || live[fn] {
			t.Errorf("allowlist entry %s is stale: no such function, or production code reaches it", key)
		}
	}
	for _, fn := range sc.decls {
		if _, ok := testOnlyAllowlist[fn.FullName()]; ok {
			mark(fn)
		}
	}
	var out []string
	for _, fn := range sc.decls {
		if !live[fn] {
			out = append(out, fn.FullName())
		}
	}
	sort.Strings(out)
	return out
}
