package sdsm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// eachImport calls fn with every import of every Go file under root,
// test files included only when tests is set. Dot-directories (build
// caches) are skipped.
func eachImport(t *testing.T, root string, tests bool, fn func(path, imp string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			fn(path, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoGobInProductCode: every message, log record and diff has one
// hand-laid binary encoding whose length is the size the cost model
// charges (DESIGN.md §2.10). A reflection codec beside it would be a
// second encoding with a different size, so no non-test file under
// internal/ or cmd/ may import encoding/gob.
func TestNoGobInProductCode(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		eachImport(t, root, false, func(path, imp string) {
			if imp == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", path)
			}
		})
	}
}

// TestLayering: internal/bench is a leaf — cmd/, the root tests and
// benchmark/ drive it, no product package under internal/ builds on it —
// and nothing imports a second protocol engine (sdsm/internal/homeless,
// deleted): the logging protocols are layers over the one home-based
// engine.
func TestLayering(t *testing.T) {
	eachImport(t, "internal", false, func(path, imp string) {
		if imp == "sdsm/internal/bench" {
			t.Errorf("%s imports sdsm/internal/bench", path)
		}
	})
	eachImport(t, ".", true, func(path, imp string) {
		if imp == "sdsm/internal/homeless" {
			t.Errorf("%s imports sdsm/internal/homeless", path)
		}
	})
}

// TestUnsafeInOneFile: the only use of package unsafe is the byte view of
// a []float64 behind the bulk accessors, in the one build-constrained
// file whose portable twin defines what it must equal (DESIGN.md §2,
// substitution 1). Any other non-test importer is a second place to
// review for aliasing and endianness.
func TestUnsafeInOneFile(t *testing.T) {
	var importers []string
	eachImport(t, ".", false, func(path, imp string) {
		if imp == "unsafe" {
			importers = append(importers, filepath.ToSlash(path))
		}
	})
	if want := []string{"internal/memory/f64s_native.go"}; !slices.Equal(importers, want) {
		t.Errorf("non-test files importing unsafe: %v, want exactly %v", importers, want)
	}
}

// TestPprofOnlyWhereServed: importing net/http/pprof turns on the
// runtime's heap-profile sampling in every binary that links the
// importer, so only internal/telemetry/httpserver imports it and only
// commands import that package — never a library the benchmark links.
func TestPprofOnlyWhereServed(t *testing.T) {
	eachImport(t, ".", false, func(path, imp string) {
		path = filepath.ToSlash(path)
		switch {
		case imp == "net/http/pprof" && path != "internal/telemetry/httpserver/server.go":
			t.Errorf("%s imports net/http/pprof", path)
		case imp == "sdsm/internal/telemetry/httpserver" && !strings.HasPrefix(path, "cmd/"):
			t.Errorf("%s imports sdsm/internal/telemetry/httpserver", path)
		}
	})
}

// TestOneRecoveryDriver: restore → replay → rejoin exists once. Offline
// crashes, online fail-stops and partition rejoins all go through
// core.(*cluster).recover, so checkpoint.RestoreInitial has exactly one
// non-test call site under internal/core; a second one is a second driver.
func TestOneRecoveryDriver(t *testing.T) {
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var sites []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "RestoreInitial" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "checkpoint" {
						sites = append(sites, fset.Position(call.Pos()).String())
					}
				}
			}
			return true
		})
	}
	if len(sites) != 1 {
		t.Errorf("checkpoint.RestoreInitial is called from %d non-test sites under internal/core, want exactly 1: %v", len(sites), sites)
	}
}
