// Package experiments regenerates every table and figure of the paper's
// evaluation, as indexed in DESIGN.md (E1–E18). Each experiment returns
// one or more Tables whose rows mirror what the paper reports: the six
// rendezvous matrices, the probabilistic analysis, the Proposition 1–4
// bounds and constructions, the per-topology m(n) series, the UUCPnet
// degree table, the Lighthouse schedules, and the Hash Locate trade-offs.
//
// The harness is consumed by cmd/mmbench (pretty printing), the root
// bench_test.go (one testing.B benchmark per experiment) and
// EXPERIMENTS.md (recorded paper-vs-measured results).
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Table is one regenerated table or figure series.
type Table struct {
	// ID is the experiment identifier (e.g. "E6").
	ID string
	// Title names the paper artifact being reproduced.
	Title string
	// Note states the paper's claim and how to read the rows.
	Note string
	// Columns are the column headers.
	Columns []string
	// Rows hold the data, pre-formatted.
	Rows [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Experiment is one runnable reproduction.
type Experiment struct {
	// ID is the DESIGN.md identifier.
	ID string
	// Title names the paper artifact.
	Title string
	// Run regenerates the tables.
	Run func() ([]Table, error)
}

// All lists every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "§2.3.1 example rendezvous matrices", Run: E01Matrices},
		{ID: "E2", Title: "§2.2 probabilistic analysis", Run: E02Probabilistic},
		{ID: "E3", Title: "§2.3.2 Propositions 1–2 lower bounds", Run: E03LowerBounds},
		{ID: "E4", Title: "§2.3.4 Proposition 3 checkerboard", Run: E04Checkerboard},
		{ID: "E5", Title: "§2.3.4 Proposition 4 lifting", Run: E05Lifting},
		{ID: "E6", Title: "§3.1 Manhattan grids and d-dim meshes", Run: E06Manhattan},
		{ID: "E7", Title: "§3.2 hypercubes and ε-splits", Run: E07Hypercube},
		{ID: "E8", Title: "§3.3 cube-connected cycles", Run: E08CCC},
		{ID: "E9", Title: "§3.4 projective planes", Run: E09Projective},
		{ID: "E10", Title: "§3.5 hierarchical networks", Run: E10Hierarchy},
		{ID: "E11", Title: "§3.6 UUCPnet table and tree depth", Run: E11UUCP},
		{ID: "E12", Title: "§4 Lighthouse Locate", Run: E12Lighthouse},
		{ID: "E13", Title: "§5 Hash Locate", Run: E13Hash},
		{ID: "E14", Title: "§2.4 robustness via f+1 rendezvous", Run: E14Robustness},
		{ID: "E15", Title: "§2.3.5 ring lower bound", Run: E15Ring},
		{ID: "E16", Title: "(M3′) frequency-weighted match-making", Run: E16Weighted},
		{ID: "E17", Title: "§3 generic √n decomposition", Run: E17Decomposition},
		{ID: "E18", Title: "§1.5 locate family comparison", Run: E18Families},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Formatting helpers shared by the experiment files.

func itoa(v int) string { return strconv.Itoa(v) }

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// sortedKeys returns the keys of an int-keyed map in ascending order.
func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
