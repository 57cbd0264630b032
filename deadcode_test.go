package anmat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the functions and methods declared under
// internal/ that no non-test code names, and why each may stay.
var uncalledAllowed = map[string]string{
	"Unwrap":        "errors.Is and errors.As call it through an interface",
	"MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
	"init":          "the runtime calls it",
	"SatisfiedBy":   "public API: anmat.go aliases pfd.PFD",
	"Derive":        "public API: anmat.go aliases table.Table",
	"UseRules":      "public API: anmat.go aliases core.Session",
	"LoadPFDs":      "public API: anmat.go aliases core.System",
	"MustParse":     "test helper that tests in several packages call",
	"MustFromRows":  "test helper that tests in several packages call",
}

// uncalledAllowedDirs names packages under internal/ whose functions
// only tests call, and why.
var uncalledAllowedDirs = map[string]string{
	"internal/tableau/tableautest": "test-support package: only _test.go files import it",
}

// TestNoUncalledLibraryCode fails on any function or method declared
// under internal/ that no non-test code of the module names, so that
// library code only tests reach does not accumulate. It parses every
// non-test .go file, bench/'s included, and counts, for each declared
// name, the identifiers spelling it minus the declarations of it; a name
// left with none is uncalled. A stale allowlist entry, one whose name is
// now called or no longer declared, fails too.
//
// The check is by name, not by type: a dead function shares the fate of
// any other function, method, field or variable spelled the same, so a
// matching name elsewhere in the module hides it, and so does a call to
// itself.
func TestNoUncalledLibraryCode(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}  // identifiers spelling each name
	decls := map[string]int{} // function and method declarations of it
	type site struct {
		name, dir string
		pos       token.Position
	}
	var internal []site
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.FuncDecl:
				decls[n.Name.Name]++
				if strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
					internal = append(internal, site{n.Name.Name, filepath.ToSlash(filepath.Dir(path)), fset.Position(n.Name.Pos())})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	called := func(name string) bool { return uses[name] > decls[name] }

	var dead []string
	allowedDirUsed := map[string]bool{}
	for _, s := range internal {
		if called(s.name) {
			continue
		}
		if _, ok := uncalledAllowedDirs[s.dir]; ok {
			allowedDirUsed[s.dir] = true
			continue
		}
		if _, ok := uncalledAllowed[s.name]; ok {
			continue
		}
		dead = append(dead, s.pos.String()+": "+s.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or allowlist it with a reason", d)
	}

	declaredInternal := map[string]bool{}
	for _, s := range internal {
		declaredInternal[s.name] = true
	}
	for name := range uncalledAllowed {
		switch {
		case !declaredInternal[name]:
			t.Errorf("stale allowlist entry %q: nothing under internal/ declares it", name)
		case called(name):
			t.Errorf("stale allowlist entry %q: non-test code now names it", name)
		}
	}
	for dir := range uncalledAllowedDirs {
		if !allowedDirUsed[dir] {
			t.Errorf("stale allowlist entry %q: it declares no uncalled function", dir)
		}
	}
}
