package matchmake

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkcheckFiles are the markdown documents whose relative links (and
// intra-repo anchors) must resolve; CI runs this test as the docs
// link-checker.
func linkcheckFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, docs...)
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails for every relative markdown link whose target
// file does not exist, and for every anchored link whose target file
// has no heading slugging to the anchor. External (http/https/mailto)
// links are not fetched. It also holds the workflow that runs it to the
// one YAML rule its step names have broken: a plain scalar may not
// contain ": ", so a `- name:` that does must be quoted — unquoted, the
// file does not parse and no job of it runs.
func TestMarkdownLinks(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: ")
		if ok && !strings.HasPrefix(name, `"`) && !strings.HasPrefix(name, "'") && strings.Contains(name, ": ") {
			t.Errorf("ci.yml:%d: unquoted step name contains \": \" — the workflow does not parse; quote it:\n\t%s", i+1, name)
		}
	}
	for _, file := range linkcheckFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, target := range extractLinks(string(body)) {
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !anchorExists(t, resolved, anchor) {
					t.Errorf("%s: link %q: no heading slugs to #%s in %s", file, target, anchor, resolved)
				}
			}
		}
	}
}

// extractLinks returns every markdown link target outside fenced code
// blocks.
func extractLinks(body string) []string {
	var out []string
	inFence := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// anchorExists reports whether any heading of the markdown file slugs
// to anchor under GitHub's rules (lowercase, punctuation stripped,
// spaces to hyphens).
func anchorExists(t *testing.T, file, anchor string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	inFence := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if slugify(heading) == anchor {
			return true
		}
	}
	return false
}

// slugify approximates GitHub's heading-anchor slugging.
func slugify(heading string) string {
	s := strings.TrimSpace(strings.ToLower(heading))
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		case r > 127: // keep non-ASCII letters (GitHub does)
			b.WriteRune(r)
		}
	}
	return b.String()
}
