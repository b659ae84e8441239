package matchmake

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// clusterCodeLineCeiling is the committed ceiling on internal/cluster's
// non-test code lines (non-blank, non-comment — the count of
// `grep -vcE '^\s*(//|$)'`). ROADMAP makes that package's net line
// count a tracked number that should go down: lower this when a change
// shrinks the package, and raise it only with a reason in the PR that
// does.
const clusterCodeLineCeiling = 5197

// codeLines counts the non-blank, non-comment lines of a Go file the
// way the ROADMAP's one-liner does: a line counts unless it is empty or
// starts (after indentation) with "//".
func codeLines(t *testing.T, path string) int {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
			n++
		}
	}
	return n
}

// nonTestGoFiles lists dir's non-test Go source files.
func nonTestGoFiles(t *testing.T, dir string) []string {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, f := range all {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}

// TestClusterCodeSizeRatchet holds internal/cluster to its committed
// code-line ceiling, and logs the per-package non-test code-line table
// (markdown; CI runs it with -v and appends the table to the job
// summary).
func TestClusterCodeSizeRatchet(t *testing.T) {
	total := 0
	for _, f := range nonTestGoFiles(t, "internal/cluster") {
		total += codeLines(t, f)
	}
	if total > clusterCodeLineCeiling {
		t.Errorf("internal/cluster has %d non-test code lines, ceiling is %d: the package grew — shrink it, or raise the ceiling with the reason in the PR", total, clusterCodeLineCeiling)
	}
	perPkg := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			perPkg[filepath.Dir(path)] += codeLines(t, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	table.WriteString("| package | non-test code lines |\n|---|---:|\n")
	for _, p := range slices.Sorted(maps.Keys(perPkg)) {
		fmt.Fprintf(&table, "| %s | %d |\n", p, perPkg[p])
	}
	t.Log(table.String())
}

// TestClusterLayering pins the coordinator/substrate seam: everything
// the paper's model defines is written once, above the substrate
// interface, and must not know there is a wire. Only the wire substrate
// and the node process it talks to may import internal/netwire.
func TestClusterLayering(t *testing.T) {
	wireSide := map[string]bool{
		"nettransport.go": true, // the wire substrate
		"netnode.go":      true, // the node process
		"netproto.go":     true, // the protocol they share
	}
	for _, f := range nonTestGoFiles(t, "internal/cluster") {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		imports := strings.Contains(string(body), `"matchmake/internal/netwire"`)
		if imports && !wireSide[filepath.Base(f)] {
			t.Errorf("%s imports internal/netwire: only the wire substrate side (%v) may", f, slices.Sorted(maps.Keys(wireSide)))
		}
	}
	for _, must := range []string{"coordinator.go", "substrate.go", "memtransport.go"} {
		if _, err := os.Stat(filepath.Join("internal/cluster", must)); err != nil {
			t.Errorf("layering check lost its subject: %v", err)
		}
	}
}
