package matchmake

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// paperMapRef matches a backticked source reference in the docs:
// `path/file.go` or `path/file.go:Symbol`, where Symbol is a top-level
// name or Type.Method.
var paperMapRef = regexp.MustCompile("`([\\w./-]+\\.go)(?::([\\w.]+))?`")

// TestPaperMapRefs keeps the paper-to-code concordance and the design
// docs honest: every `path/file.go:Symbol` reference in
// docs/PAPER_MAP.md, docs/OPERATIONS.md, DESIGN.md and README.md must
// name an existing file — a path as written, or a bare file name
// exactly one file in the repo has — that declares the symbol: a
// top-level func, type, var or const (or a method of any receiver) for a
// bare name, a method of that receiver for Type.Method. A refactor that
// moves code fails here until the docs follow.
func TestPaperMapRefs(t *testing.T) {
	byName := make(map[string][]string) // file name -> repo paths
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			byName[d.Name()] = append(byName[d.Name()], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]string)
	for _, doc := range []string{"docs/PAPER_MAP.md", "docs/OPERATIONS.md", "DESIGN.md", "README.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range paperMapRef.FindAllStringSubmatch(string(body), -1) {
			file, symbol := m[1], m[2]
			if !strings.Contains(file, "/") {
				if paths := byName[file]; len(paths) != 1 {
					t.Errorf("%s references %s, which names %d files %v: give its path", doc, file, len(paths), paths)
					continue
				}
				file = byName[file][0]
			}
			src, ok := sources[file]
			if !ok {
				b, err := os.ReadFile(file)
				if err != nil {
					t.Errorf("%s references %s: %v", doc, file, err)
					sources[file] = ""
					continue
				}
				src = string(b)
				sources[file] = src
			}
			if symbol == "" || src == "" {
				continue
			}
			var decl *regexp.Regexp
			if recv, method, ok := strings.Cut(symbol, "."); ok {
				decl = regexp.MustCompile(`(?m)^func \(\w+ \*?` + regexp.QuoteMeta(recv) + `(\[[^\]]*\])?\) ` + regexp.QuoteMeta(method) + `\(`)
			} else {
				name := regexp.QuoteMeta(symbol)
				decl = regexp.MustCompile(`(?m)^(func (\([^)]*\) )?|type |var |const |\t)` + name + `\b`)
			}
			if !decl.MatchString(src) {
				t.Errorf("%s references %s:%s, but %s does not declare it", doc, file, symbol, file)
			}
		}
	}
}
