package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func runExperiment(t *testing.T, id string) []Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s table %q has no rows", id, tab.Title)
		}
		if tab.String() == "" {
			t.Fatalf("%s table %q renders empty", id, tab.Title)
		}
	}
	return tables
}

func cell(t *testing.T, tab Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tab.Title, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %q cell (%d,%d) = %q not a float", tab.Title, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registered %d experiments, want 18", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.Run == nil {
			t.Fatalf("%s has no runner", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("e4"); !ok {
		t.Fatal("ByID should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID should reject unknown ids")
	}
}

func TestE01MatricesMatchPaper(t *testing.T) {
	tables := runExperiment(t, "E1")
	if len(tables) != 6 {
		t.Fatalf("E1 produced %d tables, want 6", len(tables))
	}
	// Example 1 row 5 (server 5): all 5s.
	if got := cell(t, tables[0], 4, 1); got != "5 5 5 5 5 5 5 5 5" {
		t.Fatalf("broadcast row 5 = %q", got)
	}
	// Example 3: every row is all 3s.
	if got := cell(t, tables[2], 0, 1); got != "3 3 3 3 3 3 3 3 3" {
		t.Fatalf("central row 1 = %q", got)
	}
	// Example 4 first row: 1 1 1 2 2 2 3 3 3.
	if got := cell(t, tables[3], 0, 1); got != "1 1 1 2 2 2 3 3 3" {
		t.Fatalf("distributed row 1 = %q", got)
	}
	// Example 5 first row: 7 7 7 9 9 9 9 9 9.
	if got := cell(t, tables[4], 0, 1); got != "7 7 7 9 9 9 9 9 9" {
		t.Fatalf("hierarchical row 1 = %q", got)
	}
	// Example 5 row 4: 9 9 9 8 8 8 9 9 9.
	if got := cell(t, tables[4], 3, 1); got != "9 9 9 8 8 8 9 9 9" {
		t.Fatalf("hierarchical row 4 = %q", got)
	}
	// Example 6 row 1 (server 000): 1 2 3 4 1 2 3 4.
	if got := cell(t, tables[5], 0, 1); got != "1 2 3 4 1 2 3 4" {
		t.Fatalf("cube row 1 = %q", got)
	}
}

func TestE02WithinTolerance(t *testing.T) {
	tables := runExperiment(t, "E2")
	tab := tables[0]
	for r := range tab.Rows {
		expect := cellFloat(t, tab, r, 2)
		measured := cellFloat(t, tab, r, 3)
		if expect == 0 {
			continue
		}
		if diff := measured/expect - 1; diff > 0.25 || diff < -0.25 {
			t.Fatalf("row %d: measured %.2f vs expected %.2f (off by >25%%)", r, measured, expect)
		}
	}
}

func TestE03BoundsHold(t *testing.T) {
	tables := runExperiment(t, "E3")
	tab := tables[0]
	for r := range tab.Rows {
		if ratio := cellFloat(t, tab, r, 3); ratio < 0.999 {
			t.Fatalf("row %d (%s): Prop 1 violated, ratio %.3f", r, cell(t, tab, r, 0), ratio)
		}
		if ratio := cellFloat(t, tab, r, 6); ratio < 0.999 {
			t.Fatalf("row %d (%s): Prop 2 violated, ratio %.3f", r, cell(t, tab, r, 0), ratio)
		}
	}
}

func TestE04CheckerboardNearBound(t *testing.T) {
	tables := runExperiment(t, "E4")
	for r := range tables[0].Rows {
		ratio := cellFloat(t, tables[0], r, 3)
		if ratio < 0.8 || ratio > 1.3 {
			t.Fatalf("row %d: m/2√n = %.3f outside [0.8, 1.3]", r, ratio)
		}
	}
}

func TestE05LiftVerified(t *testing.T) {
	tables := runExperiment(t, "E5")
	for r := range tables[0].Rows {
		if got := cell(t, tables[0], r, 5); got != "true" {
			t.Fatalf("lift step %d not verified", r)
		}
	}
}

func TestE06GridNearTheory(t *testing.T) {
	tables := runExperiment(t, "E6")
	// Grid totals within 2.5× of 2√n (floods + reply overhead stay O(√n)).
	for r := range tables[0].Rows {
		ratio := cellFloat(t, tables[0], r, 6)
		if ratio < 0.3 || ratio > 2.5 {
			t.Fatalf("grid row %d: total/2√n = %.3f outside [0.3, 2.5]", r, ratio)
		}
	}
	// Mesh exponents within 0.1 of (d−1)/d.
	mesh := tables[2]
	for r := range mesh.Rows {
		got := cellFloat(t, mesh, r, 3)
		want := cellFloat(t, mesh, r, 4)
		if diff := got - want; diff > 0.1 || diff < -0.1 {
			t.Fatalf("mesh row %d: exponent %.3f vs %.3f", r, got, want)
		}
	}
}

func TestE07HypercubeExact(t *testing.T) {
	tables := runExperiment(t, "E7")
	for r := range tables[0].Rows {
		m := cellFloat(t, tables[0], r, 2)
		bound := cellFloat(t, tables[0], r, 3)
		if m != bound {
			t.Fatalf("row %d: m(n) = %.2f, want exactly 2√n = %.2f on even d", r, m, bound)
		}
	}
	// ε-split minimum at k = 4 on the 8-cube.
	split := tables[1]
	minVal, minK := 1e18, -1
	for r := range split.Rows {
		if v := cellFloat(t, split, r, 3); v < minVal {
			minVal, minK = v, r
		}
	}
	if minK != 4 {
		t.Fatalf("ε-split minimum at k=%d, want 4", minK)
	}
}

func TestE08CCCRatiosBounded(t *testing.T) {
	tables := runExperiment(t, "E8")
	for r := range tables[0].Rows {
		if ratio := cellFloat(t, tables[0], r, 5); ratio < 0.3 || ratio > 3 {
			t.Fatalf("row %d: m/√(n·lg n) = %.3f out of range", r, ratio)
		}
		if ratio := cellFloat(t, tables[0], r, 7); ratio < 0.3 || ratio > 3 {
			t.Fatalf("row %d: cache ratio = %.3f out of range", r, ratio)
		}
	}
}

func TestE09ProjectiveRatios(t *testing.T) {
	tables := runExperiment(t, "E9")
	for r := range tables[0].Rows {
		if ratio := cellFloat(t, tables[0], r, 4); ratio < 0.9 || ratio > 1.5 {
			t.Fatalf("row %d: 2(k+1)/2√n = %.3f out of range", r, ratio)
		}
	}
	// Retrying across line choices must not lower the success rate.
	for r := range tables[1].Rows {
		first := cellFloat(t, tables[1], r, 1)
		retry := cellFloat(t, tables[1], r, 2)
		if retry < first {
			t.Fatalf("row %d: retry success %.3f < first-choice %.3f", r, retry, first)
		}
		if retry < 0.95 {
			t.Fatalf("row %d: retry success %.3f, want ≈ 1", r, retry)
		}
	}
}

func TestE10HierarchyShape(t *testing.T) {
	tables := runExperiment(t, "E10")
	tab := tables[0]
	// Deeper hierarchies (more levels) are cheaper than the flat k=1 until
	// the k = ½log n optimum: k=4 must beat k=1 on 256 nodes.
	flat := cellFloat(t, tab, 0, 2)
	k4 := cellFloat(t, tab, 2, 2)
	if k4 >= flat {
		t.Fatalf("k=4 cost %.2f should beat flat %.2f", k4, flat)
	}
}

func TestE11UUCPTable(t *testing.T) {
	tables := runExperiment(t, "E11")
	// Degree-1 row: paper says 840 sites; generated within 5%.
	tab := tables[0]
	var found bool
	for r := range tab.Rows {
		if cell(t, tab, r, 0) == "1" {
			want := cellFloat(t, tab, r, 1)
			got := cellFloat(t, tab, r, 2)
			if want != 840 {
				t.Fatalf("paper degree-1 sites = %v, want 840", want)
			}
			if got < 0.9*want || got > 1.1*want {
				t.Fatalf("generated degree-1 sites = %v, want ≈ 840", got)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("degree-1 row missing")
	}
	// Tree locate is far cheaper than 2√n.
	locate := tables[1]
	m := cellFloat(t, locate, 0, 3)
	bound := cellFloat(t, locate, 0, 4)
	if m >= bound {
		t.Fatalf("tree m(n) = %.2f should beat 2√n = %.2f", m, bound)
	}
}

func TestE12LighthouseMonotone(t *testing.T) {
	tables := runExperiment(t, "E12")
	density := tables[0]
	// More servers → fewer trials (weakly, allowing noise at the dense
	// end).
	first := cellFloat(t, density, 0, 2)
	last := cellFloat(t, density, len(density.Rows)-1, 2)
	if last > first {
		t.Fatalf("densest plane needs more trials (%.2f) than sparsest (%.2f)", last, first)
	}
	// The sparsest plane (one server lighting ~0.5% of the cells) may
	// time some clients out; denser planes must always be found.
	if f := cellFloat(t, density, 0, 4); f < 0.5 {
		t.Fatalf("sparsest density: found rate %.2f, want ≥ 0.5", f)
	}
	for r := 1; r < len(density.Rows); r++ {
		if f := cellFloat(t, density, r, 4); f < 0.95 {
			t.Fatalf("density row %d: found rate %.2f", r, f)
		}
	}
	// E12.5: the ruler catches a server that appears nearby with less
	// time-loss than the doubling schedule (§4).
	drift := tables[4]
	doubling := cellFloat(t, drift, 0, 1)
	ruler := cellFloat(t, drift, 1, 1)
	if ruler > doubling {
		t.Fatalf("ruler extra ticks %.2f should not exceed doubling %.2f", ruler, doubling)
	}
}

func TestE13HashCheaperButFragile(t *testing.T) {
	tables := runExperiment(t, "E13")
	cost := tables[0]
	hashCost := cellFloat(t, cost, 0, 2)
	shotgunCost := cellFloat(t, cost, 1, 2)
	if hashPost := cell(t, cost, 0, 1); hashCost != 2 || hashPost != "1.00" {
		t.Fatalf("hash post = %s messages, locate = %.2f hops, want 1.00 and 2", hashPost, hashCost)
	}
	if shotgunCost <= hashCost {
		t.Fatalf("shotgun cost %.2f should exceed hash %.2f", shotgunCost, hashCost)
	}
	if total := cell(t, tables[1], 0, 0); total != "1000" {
		t.Fatalf("hash load table holds %s entries, want one per port, 1000", total)
	}
	crash := tables[2]
	survival := make(map[string]string)
	for r := range crash.Rows {
		survival[cell(t, crash, r, 0)] = cell(t, crash, r, 1)
	}
	// One crash kills the plain scheme; either §5 mitigation survives it.
	for name, want := range map[string]string{"hash r=1": "0.000", "hash r=3": "1.000", "hash rehash": "1.000"} {
		if survival[name] != want {
			t.Errorf("%s survives a rendezvous crash at %s, want %s", name, survival[name], want)
		}
	}
	shotgun, _ := strconv.ParseFloat(survival["shotgun 2√n"], 64)
	if shotgun < 0.5 {
		t.Fatalf("shotgun survival %.2f, want most pairs alive", shotgun)
	}
}

func TestE14RedundancyRows(t *testing.T) {
	tables := runExperiment(t, "E14")
	for r := range tables[0].Rows {
		if got := cell(t, tables[0], r, 2); got != "true" {
			t.Fatalf("r=%d: did not survive f=r−1 crashes", r+1)
		}
		if got := cell(t, tables[0], r, 3); got != "true" {
			t.Fatalf("r=%d: did not fail at f=r crashes", r+1)
		}
	}
}

func TestE15RingVsGrid(t *testing.T) {
	tables := runExperiment(t, "E15")
	tab := tables[0]
	// For every n, the grid manhattan row must be far cheaper per node
	// than the ring rows.
	var lastRingPerN, gridPerN float64 = -1, -1
	for r := range tab.Rows {
		if strings.HasPrefix(cell(t, tab, r, 0), "ring") {
			lastRingPerN = cellFloat(t, tab, r, 4)
		} else {
			gridPerN = cellFloat(t, tab, r, 4)
			if lastRingPerN > 0 && gridPerN >= lastRingPerN {
				t.Fatalf("grid hops/n %.3f not below ring %.3f", gridPerN, lastRingPerN)
			}
		}
	}
}

func TestE16WeightedOptimum(t *testing.T) {
	tables := runExperiment(t, "E16")
	tab := tables[0]
	for r := range tab.Rows {
		best := cellFloat(t, tab, r, 2)
		balanced := cellFloat(t, tab, r, 4)
		if best > balanced+1e-9 {
			t.Fatalf("row %d: optimal split %.2f worse than balanced %.2f", r, best, balanced)
		}
		bound := cellFloat(t, tab, r, 3)
		if best < bound-1e-9 {
			t.Fatalf("row %d: cost %.2f beat the continuous bound %.2f", r, best, bound)
		}
	}
	// The measured serving table must show the weighted promotion
	// strictly lowering passes/locate on the same Zipf sample.
	if len(tables) < 2 {
		t.Fatal("E16 missing the measured weighted-serving table")
	}
	measured := tables[1]
	base := cellFloat(t, measured, 0, 2)
	weighted := cellFloat(t, measured, 1, 2)
	if weighted >= base {
		t.Fatalf("measured weighted passes/locate %.2f not below balanced %.2f", weighted, base)
	}
}

func TestE17DecompositionRuns(t *testing.T) {
	tables := runExperiment(t, "E17")
	for r := range tables[0].Rows {
		if hops := cellFloat(t, tables[0], r, 6); hops <= 0 {
			t.Fatalf("row %d: locate hops %.2f", r, hops)
		}
	}
}

func TestE18FamiliesShape(t *testing.T) {
	tables := runExperiment(t, "E18")
	tab := tables[0]
	byName := make(map[string][]string)
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	for _, name := range []string{"broadcast", "sweep", "central@0", "checkerboard-64", "hash"} {
		if byName[name] == nil {
			t.Fatalf("family %s missing", name)
		}
	}
	// Centralized name server: its crash takes out all locates (§1.4).
	central := byName["central@0"]
	if central[4] != "0.000" {
		t.Fatalf("central survival = %s, want 0.000", central[4])
	}
	// Broadcast survives any single non-server crash.
	if byName["broadcast"][4] != "1.000" {
		t.Fatalf("broadcast survival = %s, want 1.000", byName["broadcast"][4])
	}
	// Hash: one post message, query + reply, one cached entry, and dead
	// with its one rendezvous node (§5).
	if hash := strings.Join(byName["hash"][1:], " "); hash != "1.00 2.00 1 0.000" {
		t.Fatalf("hash row = %s, want 1.00 2.00 1 0.000", hash)
	}
}
