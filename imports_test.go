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

// TestNoPprofImport: importing net/http/pprof turns on the runtime's
// heap-profile sampling in every binary that links the importer, so no
// non-test file may import it, the benchmark module's included.
func TestNoPprofImport(t *testing.T) {
	eachImport(t, ".", false, func(path, imp string) {
		if imp == "net/http/pprof" {
			t.Errorf("%s imports net/http/pprof", filepath.ToSlash(path))
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

// TestOneLogReader: internal/wal is the one package that parses a
// stable-record payload (DESIGN.md §2.7), so a change to what the log
// holds or how it is read has one place to go. Outside internal/wal no
// non-test file names a wal Decode* or Split* function, and the decoders
// a record payload is built from (hlrc.DecodeNotices, memory.PeekDiff,
// memory.DecodeDiff*) are named only by wal, by hlrc's wire walk and by
// checkpoint's meta block. A name counts whether it is called or passed
// as a value. benchmark/, a module of its own, is exempt. It parses every
// non-test file of the module: 30 to 50 ms on a 2-core host.
func TestOneLogReader(t *testing.T) {
	payloadCodecs := []string{"internal/wal", "internal/hlrc", "internal/checkpoint"}
	allowed := func(pkg, name, dir string) bool {
		switch {
		case pkg == "sdsm/internal/wal" && (strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "Split")):
			return dir == "internal/wal"
		case pkg == "sdsm/internal/hlrc" && name == "DecodeNotices",
			pkg == "sdsm/internal/memory" && (name == "PeekDiff" || strings.HasPrefix(name, "DecodeDiff")):
			return slices.Contains(payloadCodecs, dir)
		}
		return true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// An unresolved identifier on the left is a package name; a
			// local variable of the same name resolves to its declaration.
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && !allowed(imports[id.Name], sel.Sel.Name, dir) {
				t.Errorf("%s names %s.%s: only internal/wal parses a stable-record payload", fset.Position(sel.Pos()), id.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
