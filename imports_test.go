package sdsm_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoGobInProductCode: every message, log record and diff has one
// hand-laid binary encoding whose length is the size the cost model
// charges (DESIGN.md §2.10). A reflection codec beside it would be a
// second encoding with a different size, so no non-test file under
// internal/ or cmd/ may import encoding/gob.
func TestNoGobInProductCode(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
					t.Errorf("%s imports encoding/gob", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
