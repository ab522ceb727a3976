// Package analysistest is a stdlib-only counterpart of
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer over
// a fixture package and checks the produced diagnostics against
// expectations written in the fixture sources as
//
//	// want "regexp"
//	// want "regexp1" "regexp2"
//
// trailing comments on the offending line. Every expectation must be
// matched by exactly one diagnostic on its line and every diagnostic
// must match an expectation, so fixtures double as both positive
// (planted bug) and negative (clean variant) coverage.
package analysistest

import (
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run type-checks the fixture package rooted at dir under the synthetic
// import path pkgpath (which analyzers may use for package
// classification, e.g. determinism's sim-core scoping) and applies a,
// failing t on any mismatch between reported diagnostics and the
// fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := analysis.CheckFiles(fset, imp, pkgpath, files)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}

	wants := collectWants(t, fset, files)

	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := lineKey{filepath.Base(pos.Filename), pos.Line}
		if w := wants[key]; w != nil && len(w.patterns) > 0 {
			matched := false
			for i, re := range w.patterns {
				if w.used[i] {
					continue
				}
				if re.MatchString(d.Message) {
					w.used[i] = true
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}

	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		w := wants[k]
		for i, re := range w.patterns {
			if !w.used[i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type wantSet struct {
	patterns []*regexp.Regexp
	used     []bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses the fixtures' // want comments by re-reading the
// sources with comments attached.
func collectWants(t *testing.T, fset *token.FileSet, files []string) map[lineKey]*wantSet {
	t.Helper()
	wants := map[lineKey]*wantSet{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("re-parsing fixture: %v", err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey{filepath.Base(pos.Filename), pos.Line}
				w := wants[key]
				if w == nil {
					w = &wantSet{}
					wants[key] = w
				}
				for _, q := range splitQuoted(t, pos.String(), m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, q, err)
					}
					w.patterns = append(w.patterns, re)
					w.used = append(w.used, false)
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings: `"a" "b"`.
func splitQuoted(t *testing.T, pos, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s: malformed want expectation at %q", pos, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		q, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want pattern %q: %v", pos, s[:end+1], err)
		}
		out = append(out, q)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		t.Fatalf("%s: empty want expectation", pos)
	}
	return out
}

// Fixture returns the analyzer's conventional fixture directory:
// testdata/<name> relative to the test's working directory.
func Fixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join("testdata", name)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return dir
}
