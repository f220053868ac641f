package quake_test

import (
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
	"regexp"
	"strings"
	"testing"
)

// TestFacadeHasCallers is the surface guard for the root package: every
// exported name api.go declares must have a caller. A name has one if
// examples/, a root benchmark file (bench_test.go, bench_*_test.go),
// example_test.go or README.md writes quake.<Name>, or if it is a type
// that appears in the type of a name that has one (Fig2Table returns a
// *Table, so Table stays). api_test.go and api_obs_test.go do not count:
// a name that only its own test calls is not public surface, and the
// test should call the internal package instead. Adding a re-export that
// nothing uses fails this test.
func TestFacadeHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range []string{"api.go", "doc.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", exportData(t))}
	pkg, err := conf.Check("repro", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}

	used := facadeCallers(t)
	// A facade type alias names the same type as its target, so a kept
	// name's type that mentions the target keeps the alias.
	aliasOf := map[types.Type]string{}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
			aliasOf[types.Unalias(tn.Type())] = name
		}
	}
	kept := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		if kept[name] {
			return
		}
		kept[name] = true
		obj := pkg.Scope().Lookup(name)
		if _, ok := obj.(*types.TypeName); ok {
			return // the alias itself; its target's fields are not facade names
		}
		for _, n := range namedIn(obj.Type()) {
			if alias, ok := aliasOf[n]; ok {
				keep(alias)
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if token.IsExported(name) && used[name] {
			keep(name)
		}
	}

	var orphans []string
	for _, name := range pkg.Scope().Names() {
		if token.IsExported(name) && !kept[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("api.go exports %d name(s) that no example, root benchmark, example_test.go or README.md uses:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	if len(kept) == 0 {
		t.Fatal("no facade name has a caller — the caller scan has drifted from the tree")
	}
}

// exportData opens the compiler's export data of the root package's
// dependencies, as the build cache holds it after `go test` built them
// (type-checking them from source instead takes seconds).
func exportData(t *testing.T) func(path string) (io.ReadCloser, error) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			files[path] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// facadeCallers returns every Name written as quake.<Name> in the caller
// set of TestFacadeHasCallers.
func facadeCallers(t *testing.T) map[string]bool {
	t.Helper()
	paths := []string{"example_test.go", "README.md", "bench_test.go"}
	for _, pattern := range []string{"bench_*_test.go", "examples/*/*.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	ref := regexp.MustCompile(`\bquake\.([A-Z]\w*)`)
	used := map[string]bool{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(src), -1) {
			used[m[1]] = true
		}
	}
	return used
}

// namedIn lists the named types that t mentions: itself, its elements,
// and the parameters and results of a signature.
func namedIn(t types.Type) []types.Type {
	var out []types.Type
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			out = append(out, t)
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	walk(t)
	return out
}
