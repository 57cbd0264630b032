package anmat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// uncalledAllowed names, by qualified name, the functions and methods no
// root reaches that may stay, and why.
var uncalledAllowed = map[string]string{
	"(*cluster.RetryError).Unwrap":     unwrapReason,
	"(*cluster.permanentError).Unwrap": unwrapReason,
	"(*core.PersistenceError).Unwrap":  unwrapReason,
	"(*obs.TraceStore).Reset":          "tests empty the process-global obs.Traces, which live goroutines read, so swapping the variable would race",
	"pattern.MustParse":                "test helper that tests in several packages call",
	"table.MustFromRows":               "test helper that tests in several packages call",
}

const unwrapReason = "errors.Is and errors.As call it through an unnamed interface that export data does not carry"

// uncalledAllowedPkgs names packages, by module-relative directory, whose
// functions only tests reach, and why.
var uncalledAllowedPkgs = map[string]string{
	"internal/obs/obstest":         "test-support package: only _test.go files import it",
	"internal/tableau/tableautest": "test-support package: only _test.go files import it",
}

// TestNoUncalledLibraryCode fails on any function or method of the
// module that no root reaches (see reachable), so that library code only
// tests call does not accumulate. A stale allowlist entry, one that now
// is reached or no longer declared, fails too.
func TestNoUncalledLibraryCode(t *testing.T) {
	start := time.Now()
	dead, err := reachable(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reachability took %v", time.Since(start).Round(time.Millisecond))

	unreached := map[string]bool{}
	pkgUnreached := map[string]bool{}
	for _, d := range dead {
		unreached[d.name] = true
		if _, ok := uncalledAllowedPkgs[d.dir]; ok {
			pkgUnreached[d.dir] = true
			continue
		}
		if _, ok := uncalledAllowed[d.name]; ok {
			continue
		}
		t.Errorf("%s:%d: %s is reached by no root: delete it, or allowlist it with a reason", d.file, d.line, d.name)
	}
	for name := range uncalledAllowed {
		if !unreached[name] {
			t.Errorf("stale allowlist entry %q: a root reaches it, or nothing declares it", name)
		}
	}
	for dir := range uncalledAllowedPkgs {
		if !pkgUnreached[dir] {
			t.Errorf("stale allowlist entry %q: it declares no unreached function", dir)
		}
	}
}

// TestReachableFixture runs reachable on testdata/deadcode, a module of
// four cases: a dead method named like a live one, a method live only
// through an interface, a function live only as a func value, and a
// method of a type the root package aliases. Only the first is dead.
func TestReachableFixture(t *testing.T) {
	dead, err := reachable(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	if want := []string{"(*inner.Gauge).Get"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

// deadFunc is a function or method no root reaches.
type deadFunc struct {
	name string // qualified: pkg.F, (pkg.T).M or (*pkg.T).M
	dir  string // its package's directory, relative to the module
	file string // relative to the module
	line int
}

// listedPackage is the part of `go list -json` output reachable reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// reachable type-checks the module in dir, and the module in dir/bench
// when there is one, and returns the module's functions and methods that
// no root reaches, sorted by position. bench/'s own functions are not
// reported: while it is frozen, all of them are roots.
//
// One `go list -deps -export -json ./...` per module names the packages
// (build tags honoured) in dependency order with the standard library's
// export data. The module's packages are parsed and checked from source
// behind one shared importer, so an object is the same pointer in every
// package that refers to it.
//
// The roots are every main, every init, every package-level variable's
// initializer, all of bench/, the root package's exported functions, and
// the exported methods (T and *T) of every type the root package declares
// or aliases. A function is live when a live function or a root refers
// to it (types.Info.Uses: calls and func values alike). A method is also
// live when its receiver, T or *T, implements a non-empty interface that
// declares it: one the module declares or writes as a literal, one of a
// package it imports, or error.
func reachable(dir string) ([]deadFunc, error) {
	modDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := goList(modDir)
	if err != nil {
		return nil, err
	}
	var benchPkgs []*listedPackage
	if _, err := os.Stat(filepath.Join(modDir, "bench", "go.mod")); err == nil {
		if benchPkgs, err = goList(filepath.Join(modDir, "bench")); err != nil {
			return nil, err
		}
	}
	benchDir := filepath.Join(modDir, "bench") + string(filepath.Separator)

	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type source struct {
		pkg   *types.Package
		info  *types.Info
		files []*ast.File
		bench bool
	}
	var srcs []source
	seen := map[string]bool{}
	for _, lp := range append(pkgs, benchPkgs...) {
		if seen[lp.ImportPath] {
			continue
		}
		seen[lp.ImportPath] = true
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg
		srcs = append(srcs, source{pkg, info, files, strings.HasPrefix(lp.Dir+string(filepath.Separator), benchDir)})
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no packages in %s", modDir)
	}
	var rootPath string
	for _, lp := range pkgs {
		if lp.Dir == modDir {
			rootPath = lp.ImportPath
		}
	}

	// Every declared function, and the roots.
	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	var rootExprs []ast.Node
	for _, s := range srcs {
		for _, f := range s.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := s.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					decls[fn] = d
					name := d.Name.Name
					if s.bench || (d.Recv == nil && (name == "init" ||
						name == "main" && s.pkg.Name() == "main" ||
						s.pkg.Path() == rootPath && ast.IsExported(name))) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						for _, spec := range d.Specs {
							for _, v := range spec.(*ast.ValueSpec).Values {
								rootExprs = append(rootExprs, v)
							}
						}
					}
				}
			}
		}
		if s.pkg.Path() != rootPath {
			continue
		}
		for _, name := range s.pkg.Scope().Names() {
			tn, ok := s.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					roots = append(roots, m.(*types.Func))
				}
			}
		}
	}

	// Methods live through an interface.
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	imported := map[*types.Package]bool{}
	var walkImports func(*types.Package)
	walkImports = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !imported[q] {
				imported[q] = true
				addScope(q)
				walkImports(q)
			}
		}
	}
	for _, s := range srcs {
		addScope(s.pkg)
		walkImports(s.pkg)
		for _, tv := range s.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	for _, s := range srcs {
		for _, name := range s.pkg.Scope().Names() {
			tn, ok := s.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				continue
			}
			for it := range ifaces {
				if it.NumMethods() == 0 {
					continue
				}
				for _, recv := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
					if !types.Implements(recv, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); obj != nil {
							roots = append(roots, obj.(*types.Func))
						}
					}
					break
				}
			}
		}
	}

	// Walk from the roots.
	live := map[*types.Func]bool{}
	uses := map[*ast.Ident]types.Object{}
	for _, s := range srcs {
		for id, obj := range s.info.Uses {
			uses[id] = obj
		}
	}
	work := roots
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := uses[id].(*types.Func); ok {
					work = append(work, fn.Origin())
				}
			}
			return true
		})
	}
	for _, e := range rootExprs {
		visit(e)
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if live[fn] {
			continue
		}
		live[fn] = true
		if d := decls[fn]; d != nil && d.Body != nil {
			visit(d.Body)
		}
	}

	var dead []deadFunc
	for fn, d := range decls {
		pos := fset.Position(d.Name.Pos())
		if live[fn] || strings.HasPrefix(pos.Filename, benchDir) {
			continue
		}
		rel, _ := filepath.Rel(modDir, pos.Filename)
		dead = append(dead, deadFunc{
			name: qualifiedName(fn),
			dir:  filepath.ToSlash(filepath.Dir(rel)),
			file: filepath.ToSlash(rel),
			line: pos.Line,
		})
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead, nil
}

// goList runs `go list -deps -export -json ./...` in dir.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// qualifiedName spells fn as pkg.F, (pkg.T).M or (*pkg.T).M, with the
// package's name as its qualifier.
func qualifiedName(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t, star := recv.Type(), ""
	if p, ok := t.(*types.Pointer); ok {
		t, star = p.Elem(), "*"
	}
	return "(" + star + pkg + "." + types.Unalias(t).(*types.Named).Obj().Name() + ")." + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
