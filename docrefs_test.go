package sdsm_test

import (
	"cmp"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A citation may wrap across a line break, in a Go comment too.
var (
	roadmapRef = regexp.MustCompile(`ROADMAP[\s/]+item[\s/]+(\d+)`)
	designRef  = regexp.MustCompile(`DESIGN\.md[\s/]+§(\d+(?:\.\d+)?)`)
	lineRef    = regexp.MustCompile(`\b(\w+\.go:\d+)`)
	ownDocs    = map[string]bool{"DESIGN.md": true, "ROADMAP.md": true, "README.md": true, "EXPERIMENTS.md": true}
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	goName     = regexp.MustCompile(`^\w+(\.\w+)*$`)
)

// TestDocReferences keeps the documents' citations from rotting: every
// "ROADMAP item N" in a Go or Markdown file must name an item of
// ROADMAP.md's open list, and every "DESIGN.md §N[.M]" a numbered DESIGN.md
// heading; Go files and ownDocs cite code by name, never by a line
// (`file.go:NNN`) that the next edit moves. benchmark/ (a module of its
// own) and CHANGES.md (a history) are not scanned. And DESIGN.md must not
// name code that is gone: every mixed-case name in a code span, bare
// (`handle`), qualified by a package of the module
// (`hlrc.Node.ApplyDiffAsHome`: the first name in that package) or a
// method (`(*T).m`), must be an identifier of the module's Go code.
// Lower-case names after a package are metrics (`tcp.frames`), and
// selectors on values (`nd.mu`) are skipped.
func TestDocReferences(t *testing.T) {
	roadmap, design := readDoc(t, "ROADMAP.md"), readDoc(t, "DESIGN.md")
	_, open, ok := strings.Cut(roadmap, "\n## Open items\n")
	if !ok {
		t.Fatal("ROADMAP.md has no \"## Open items\" section")
	}
	open, _, _ = strings.Cut(open, "\n## ")
	items := firstGroups(regexp.MustCompile(`(?m)^(\d+)\. \*\*`), open)
	sections := firstGroups(regexp.MustCompile(`(?m)^#+ (\d+(?:\.\d+)?)[. ]`), design)
	if len(items) == 0 || len(sections) == 0 {
		t.Fatalf("parsed %d open ROADMAP items and %d DESIGN.md sections", len(items), len(sections))
	}
	cited := 0
	check := func(path, text string, ref *regexp.Regexp, known map[string]bool, why string) {
		for _, m := range ref.FindAllStringSubmatchIndex(text, -1) {
			cited++
			if n := text[m[2]:m[3]]; !known[n] {
				t.Errorf("%s:%d: %q %s", path, strings.Count(text[:m[0]], "\n")+1, text[m[0]:m[1]], why)
			}
		}
	}
	ids := map[string]bool{} // every identifier of the Go code, and as "pkg.ident"
	repoFiles(t, func(path, text string) {
		if strings.HasSuffix(path, ".go") {
			goIdents(ids, path, text)
		}
		if path != "CHANGES.md" && !strings.HasPrefix(path, "benchmark/") {
			check(path, text, roadmapRef, items, "names nothing in ROADMAP.md's open list")
			check(path, text, designRef, sections, "names nothing in DESIGN.md's headings")
			if ownDocs[path] || strings.HasSuffix(path, ".go") {
				check(path, text, lineRef, nil, "cites a line: name the symbol instead")
			}
		}
	})
	mixed := func(s string) bool { return strings.ToLower(s) != s && strings.ToUpper(s) != s }
	for _, m := range codeSpan.FindAllStringSubmatch(design, -1) {
		name := strings.NewReplacer("(*", "", ")", "").Replace(m[1])
		parts := strings.Split(name, ".")
		switch {
		case !goName.MatchString(name):
			continue
		case len(parts) > 1 && ids[parts[0]+"."]:
			if !mixed(parts[1]) {
				continue
			}
			parts = append([]string{parts[0] + "." + parts[1]}, parts[2:]...)
		case len(parts) > 1 && name == m[1], len(parts) == 1 && !mixed(name):
			continue
		}
		for _, n := range parts {
			if cited++; !ids[n] {
				t.Errorf("DESIGN.md names `%s`, but %q is in no Go code of the module", m[1], n)
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no citation at all: the patterns are broken")
	}
}

// goIdents adds to ids every identifier of a Go file's code (comments
// left out), bare and as "pkg.ident", and "pkg." for its package (a _test
// package counts as its package).
func goIdents(ids map[string]bool, path, text string) {
	var s scanner.Scanner
	s.Init(token.NewFileSet().AddFile(path, -1, len(text)), []byte(text), nil, 0)
	pkg := ""
	for prev := token.ILLEGAL; prev != token.EOF; {
		_, tok, lit := s.Scan()
		if tok == token.IDENT && prev == token.PACKAGE {
			pkg = strings.TrimSuffix(lit, "_test") + "."
		}
		if tok == token.IDENT {
			ids[lit], ids[pkg+lit], ids[pkg] = true, true, true
		}
		prev = tok
	}
}

// repoFiles calls fn with the path and text of every Go and Markdown file
// of the repository outside dot directories.
func repoFiles(t *testing.T, fn func(path, text string)) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md") {
			fn(path, readDoc(t, path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstGroups returns the set of re's first submatch over text.
func firstGroups(re *regexp.Regexp, text string) map[string]bool {
	set := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		set[m[1]] = true
	}
	return set
}
