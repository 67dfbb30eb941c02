package sdsm_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A citation may wrap across a line break, inside a Go comment too.
var (
	roadmapRef = regexp.MustCompile(`ROADMAP[\s/]+item[\s/]+(\d+)`)
	designRef  = regexp.MustCompile(`DESIGN\.md[\s/]+§(\d+(?:\.\d+)?)`)
)

// TestDocReferences keeps the documents' citations from rotting: every
// "ROADMAP item N" in a Go or Markdown file must name an item of
// ROADMAP.md's open list, and every "DESIGN.md §N[.M]" a numbered
// DESIGN.md heading. benchmark/ (a module of its own) and CHANGES.md (a
// history, which cites items long done) are not scanned.
func TestDocReferences(t *testing.T) {
	roadmap := readDoc(t, "ROADMAP.md")
	_, open, ok := strings.Cut(roadmap, "\n## Open items\n")
	if !ok {
		t.Fatal("ROADMAP.md has no \"## Open items\" section")
	}
	open, _, _ = strings.Cut(open, "\n## ")
	items := firstGroups(regexp.MustCompile(`(?m)^(\d+)\. \*\*`), open)
	sections := firstGroups(regexp.MustCompile(`(?m)^#+ (\d+(?:\.\d+)?)[. ]`), readDoc(t, "DESIGN.md"))
	if len(items) == 0 || len(sections) == 0 {
		t.Fatalf("parsed %d open ROADMAP items and %d DESIGN.md sections", len(items), len(sections))
	}

	cited := 0
	check := func(path, text string, ref *regexp.Regexp, known map[string]bool, doc string) {
		for _, m := range ref.FindAllStringSubmatchIndex(text, -1) {
			cited++
			if n := text[m[2]:m[3]]; !known[n] {
				line := strings.Count(text[:m[0]], "\n") + 1
				t.Errorf("%s:%d: %q names nothing in %s", path, line, text[m[0]:m[1]], doc)
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if path == "CHANGES.md" || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md")) {
			return nil
		}
		text := readDoc(t, path)
		check(path, text, roadmapRef, items, "ROADMAP.md's open list")
		check(path, text, designRef, sections, "DESIGN.md's headings")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no citation at all: the patterns are broken")
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
