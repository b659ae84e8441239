package matchmake

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// paperMapRef matches a backticked source reference in
// docs/PAPER_MAP.md: `path/file.go` or `path/file.go:Symbol`, where
// Symbol is a top-level name or Type.Method.
var paperMapRef = regexp.MustCompile("`([\\w./-]+\\.go)(?::([\\w.]+))?`")

// TestPaperMapRefs keeps the paper-to-code concordance honest: every
// `path/file.go:Symbol` reference in docs/PAPER_MAP.md must name an
// existing file that declares the symbol — a top-level func, type, var
// or const (or a method of any receiver) for a bare name, a method of
// that receiver for Type.Method. A refactor that moves code fails here
// until the map follows.
func TestPaperMapRefs(t *testing.T) {
	body, err := os.ReadFile("docs/PAPER_MAP.md")
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]string)
	for _, m := range paperMapRef.FindAllStringSubmatch(string(body), -1) {
		file, symbol := m[1], m[2]
		src, ok := sources[file]
		if !ok {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Errorf("PAPER_MAP.md references %s: %v", file, err)
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
			t.Errorf("PAPER_MAP.md references %s:%s, but %s does not declare it", file, symbol, file)
		}
	}
}
