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
// does. It stands at the measured count of the PR that made the node
// process a frame codec over the in-process substrate — one record
// grammar on the node wire, row hosting written once — which took back
// the two raises before it (5 080 → 5 135 for per-record statuses and
// staged multicasts, → 5 143 for caller-affine lanes) — less the two
// lines the PR that took the clock out of the reference engine removed
// (SimTransport.Network(), the per-index hash seed). It rose by 20 when
// in-process locates stopped sharing floods: 7 for the capability (the
// inProcess interface, its one-line method on MemTransport and on
// SimTransport, the two lines with which New folds it into
// DisableCoalescing) and 13 for the node batch's bounded port intern
// table (the ports field, maxInternedPorts, nodeBatch.port). It fell by 2
// when the locate-all fallthrough became the locate fallthrough's loop,
// net of the simulator's registration and refusal order moving into one
// validation pass and a repost bumping its port's hint generation. It
// fell to 4 658 when the simulator became a third substrate under the
// one coordinator and its copy of the coordinator (SimTransport's own
// elastic phases, fallthrough, reconciliation and arming) was deleted.
// It rose by 22 to 4 680 when the wire numbered nodes in query-local
// order so a locate floods one node process: the wire substrate's slot
// map (its two fields and their fill, at, hosts) and the translation at
// every record it encodes, digest it scatters and repair range it tests.
// It rose by 1 to 4 681 for SimTransport.Store, the accessor MemTransport
// already has, through which the reproduction reads cache sizes once
// core's second Shotgun Locate engine was deleted. It rose by 21 to
// 4 702 when the coordinator began serving Hash Locate (§5) and the
// private hash engine in internal/hashlocate (182 code lines) was
// deleted: Layout.Hash and its refusal of elastic and weighted layouts,
// the coordinator's hash field, the hash branches of postSets, querySet
// and readScope, and treeCost for sets chosen per operation. It rose by
// 10 to 4 712 when bring-up became O(n²): 9 in store.go, where a post
// creates all of its port's missing rows in one copy-on-write step
// (Store.rowsWith, which Put and Inject call as a batch of one, 9 lines
// longer than the per-row slotCreate it replaced, and its cmp import),
// 5 in cluster.go for starting the Submit pool on the first Submit
// (startPool, the sync.Once and the two calls), less 4 in
// memSubstrate.post, which no longer creates rows one by one.
const clusterCodeLineCeiling = 4712

// clusterTestLineCeiling is the committed ceiling on internal/cluster's
// test lines, raw (`cat internal/cluster/*_test.go
// internal/cluster/testdata/histories/* | wc -l`): history files count,
// because moving a script into a data file is not a reduction. It stands
// at the measured count of the PR that made every transport comparison
// a history on one runner over a reference model (7 750 before). The
// tests stood at 5 950 when the wire numbered nodes in query-local
// order, which added 107 lines: TestQueryLocalPlacement (frames per
// locate and per post, digests and dumps by slot, the r = 2 identity,
// two transports from one layout), the tests that name process state
// by wire slot, and the reason TestCoalescerFillsBatches floods spawned
// node processes. It fell to 6 023 when the history worlds took the §3
// topologies and TestClusterSimTransport the §3.1 exact hop counts,
// paid for by must() in place of t.Fatal boilerplate around setup
// constructors that cannot fail. It rose by 19 to 6 042 when the
// coordinator began serving Hash Locate: TestFinishResizeFencesWrites
// (the scripted race behind the elastic resurrection, with its held
// substrate), the hash inputs of TestClusterSimTransport's exact-count
// table and its hash history on every column, the hash= world option,
// two hash worlds and the model's hash sets — 80 lines, net of must()
// around 24 more setup calls that cannot fail (registrations on mem and
// sim, in-process transports, node servers without a listener, layouts
// and epochs).
const clusterTestLineCeiling = 6042

// clusterConstructorCeiling is the committed ceiling on exported
// `func New*` declarations in internal/cluster's non-test files: the
// package's modes are values of one configuration space (cluster.Layout),
// not constructors, so a new mode must not arrive as a new New*. The
// nine are New, NewStore, NewNodeServer and, per transport, the
// bare-strategy constructor and the Layout one.
const clusterConstructorCeiling = 9

// shellCodeLineCeiling is the second ceiling ROADMAP item 7 asks for:
// the non-test code lines of what surrounds the cluster's own packages —
// every cmd/ binary plus internal/sweep and its subpackages (3 372 before
// loadrun.Config's field table became the one declaration of the run
// description, 3 116 before the simulator's two timeout rows left it, 3 113
// before the simulator's weighted-mode refusal left loadrun, 3 110 before
// mmctl demo built its layout to register "printer" on a node worker 1
// hosts under the query-local wire placement).
// Same rule as above: lower it when the shell shrinks, raise it only with
// the reason in the PR that does.
const shellCodeLineCeiling = 3112

// codeLines counts the non-blank, non-comment lines of a Go file the
// way the ROADMAP's one-liner does — a line counts unless it is empty or
// starts (after indentation) with "//" — and, among them, the exported
// constructor declarations (`func New…`).
func codeLines(t *testing.T, path string) (lines, constructors int) {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
			lines++
		}
		if strings.HasPrefix(line, "func New") {
			constructors++
		}
	}
	return lines, constructors
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
// code-line, test-line and constructor ceilings and the shell around it
// (cmd/ + internal/sweep) to its code-line ceiling, and logs the
// per-package non-test code-line and exported-constructor table with the
// cluster's test-line count (markdown; CI runs it with -v and appends
// the table to the job summary).
func TestClusterCodeSizeRatchet(t *testing.T) {
	total, constructors := 0, 0
	for _, f := range nonTestGoFiles(t, "internal/cluster") {
		l, c := codeLines(t, f)
		total, constructors = total+l, constructors+c
	}
	if total > clusterCodeLineCeiling {
		t.Errorf("internal/cluster has %d non-test code lines, ceiling is %d: the package grew — shrink it, or raise the ceiling with the reason in the PR", total, clusterCodeLineCeiling)
	}
	tests := 0
	histories, err := filepath.Glob("internal/cluster/testdata/histories/*")
	if err != nil {
		t.Fatal(err)
	}
	testFiles, err := filepath.Glob("internal/cluster/*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(testFiles, histories...) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		tests += strings.Count(string(body), "\n")
	}
	if tests > clusterTestLineCeiling {
		t.Errorf("internal/cluster has %d raw test lines (with its histories), ceiling is %d: the tests grew — shrink them, or raise the ceiling with the reason in the PR", tests, clusterTestLineCeiling)
	}
	if constructors > clusterConstructorCeiling {
		t.Errorf("internal/cluster exports %d New* constructors, ceiling is %d: add the mode to cluster.Layout, not a constructor", constructors, clusterConstructorCeiling)
	}
	perPkg := make(map[string][2]int)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			l, c := codeLines(t, path)
			row := perPkg[filepath.Dir(path)]
			perPkg[filepath.Dir(path)] = [2]int{row[0] + l, row[1] + c}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shell := 0
	for p, row := range perPkg {
		if strings.HasPrefix(p, "cmd/") || p == "internal/sweep" || strings.HasPrefix(p, "internal/sweep/") {
			shell += row[0]
		}
	}
	if shell > shellCodeLineCeiling {
		t.Errorf("cmd/ + internal/sweep have %d non-test code lines, ceiling is %d: the shell around the cluster grew — shrink it, or raise the ceiling with the reason in the PR", shell, shellCodeLineCeiling)
	}
	var table strings.Builder
	table.WriteString("| package | non-test code lines | exported New* |\n|---|---:|---:|\n")
	for _, p := range slices.Sorted(maps.Keys(perPkg)) {
		fmt.Fprintf(&table, "| %s | %d | %d |\n", p, perPkg[p][0], perPkg[p][1])
	}
	fmt.Fprintf(&table, "| internal/cluster tests and histories (raw lines) | %d | |\n", tests)
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
	// The node process hosts a memSubstrate and reaches rows through it
	// (and Store.DumpRange, for the snapshot) or not at all: the row rules
	// — merge, freshest, lies, digests, the corruption backdoors — are
	// written once, in the substrate.
	node, err := os.ReadFile("internal/cluster/netnode.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []string{"lieFor", ".Inject(", ".Drop(", ".Put(", "appendActive", "postingDigest(", "buildForgeTable"} {
		if strings.Contains(string(node), rule) {
			t.Errorf("internal/cluster/netnode.go names the row-rule helper %q: call the memSubstrate method instead", rule)
		}
	}
	if !strings.Contains(string(node), "*memSubstrate") {
		t.Error("internal/cluster/netnode.go no longer hosts a memSubstrate: the layering check lost its subject")
	}
	for _, must := range []string{"coordinator.go", "substrate.go", "memtransport.go"} {
		if _, err := os.Stat(filepath.Join("internal/cluster", must)); err != nil {
			t.Errorf("layering check lost its subject: %v", err)
		}
	}
}
