// Package sweep expands declarative scenario matrices into concrete
// load runs over real clusters, gates each run against per-scenario
// invariants, and regenerates the EXPERIMENTS.md measured tables from
// the recorded results — the repeatable-measurement harness behind
// cmd/mmsweep.
//
// A matrix file declares defaults, sweep dimensions (the cartesian
// product of every non-empty dimension list) and optional explicit
// scenarios; Expand turns it into named Scenario values, Run drives
// each through the internal/sweep/loadrun engine (spawning a real
// node-process cluster per net scenario via internal/sweep/procctl, or
// targeting an external cluster by address), and the per-run JSON plus
// an index land in a results directory that Tables and the CI
// sweep-smoke gate both consume.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"

	"matchmake/internal/sweep/loadrun"
)

// Scenario is one concrete run of the load engine: a name, the
// node-process count for a spawned net cluster, and the engine's own
// run description. Its JSON form is flat — "name", "procs", and one key
// per loadrun.Config table row (the mmload flag name with '-' → '_').
type Scenario struct {
	// Name identifies the run (and its results file); Expand derives
	// one from the swept dimensions when empty.
	Name string
	// Procs is the node-process count for spawned net clusters (0 = the
	// sweep's -procs).
	Procs int
	loadrun.Config
}

// overlay is a partial scenario document: only the keys present are
// set, so an explicit zero overrides what it is laid over and an
// absent key inherits it.
type overlay map[string]json.RawMessage

// apply sets every key of o on s.
func (s *Scenario) apply(o overlay) error {
	for key, raw := range o {
		var err error
		switch key {
		case "name":
			err = json.Unmarshal(raw, &s.Name)
		case "procs":
			err = json.Unmarshal(raw, &s.Procs)
		default:
			err = s.SetJSON(key, raw)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalJSON decodes a whole scenario document: loadrun's defaults,
// then the keys present.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	var o overlay
	if err := json.Unmarshal(b, &o); err != nil {
		return err
	}
	*s = Scenario{Config: loadrun.Defaults()}
	return s.apply(o)
}

// MarshalJSON renders the document UnmarshalJSON reads back: the name,
// procs, and every engine field that differs from loadrun's defaults.
func (s Scenario) MarshalJSON() ([]byte, error) {
	doc := s.Overrides()
	if s.Name != "" {
		doc["name"] = s.Name
	}
	if s.Procs != 0 {
		doc["procs"] = s.Procs
	}
	return json.Marshal(doc)
}

// Matrix is a declarative sweep: defaults laid over loadrun's for every
// run, the swept dimensions (scenario key → value list; the expansion
// is the cartesian product of every list), and optional explicit extra
// scenarios, also laid over the defaults.
type Matrix struct {
	Defaults  overlay                      `json:"defaults"`
	Dims      map[string][]json.RawMessage `json:"dims"`
	Scenarios []overlay                    `json:"scenarios,omitempty"`
}

// ReadMatrix loads a matrix file and checks that it expands: a typo in
// a key must not silently become a default.
func ReadMatrix(path string) (*Matrix, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Matrix
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("matrix %s: %w", path, err)
	}
	if _, _, err := m.Expand(); err != nil {
		return nil, fmt.Errorf("matrix %s: %w", path, err)
	}
	return &m, nil
}

// dimLabel is one sweepable dimension and the name fragment its value
// contributes: on is a format for the value (or a literal), off the
// fragment for a zero value where the dimension has one.
type dimLabel struct{ key, on, off string }

// fragment renders v, the dimension's value in a scenario.
func (d dimLabel) fragment(v reflect.Value) string {
	switch {
	case v.IsZero() && d.off != "":
		return d.off
	case strings.Contains(d.on, "%"):
		return fmt.Sprintf(d.on, v.Interface())
	}
	return d.on
}

// dimLabels are the sweepable dimensions, in expansion (and so name)
// order.
var dimLabels = []dimLabel{
	{"transport", "%s", ""},
	{"topology", "%s", ""},
	{"strategy", "%s", ""},
	{"nodes", "n%d", ""},
	{"replicas", "r%d", ""},
	{"vote_quorum", "q%d", ""},
	{"hints", "hints", "nohints"},
	{"batch", "batch%d", "nobatch"},
	{"kill_rate", "kill%g", "nokill"},
	{"corrupt_rate", "corrupt%g", "nocorrupt"},
	{"byzantine_rate", "byz%g", "honest"},
	{"resize_interval", "resize%v", "noresize"},
}

// skipReason rejects inconsistent combinations up front so a matrix
// sweep skips (and reports) them instead of failing mid-run: whatever
// the engine's own validator refuses, plus the two rules only a sweep
// can break.
func skipReason(s Scenario) string {
	if err := s.Validate(); err != nil {
		return err.Error()
	}
	switch {
	case s.VoteQuorum > s.Replicas:
		return fmt.Sprintf("vote-quorum %d wider than replicas %d", s.VoteQuorum, s.Replicas)
	case s.Transport == "net" && s.Procs > s.Nodes:
		return fmt.Sprintf("procs %d > nodes %d", s.Procs, s.Nodes)
	}
	return ""
}

// Expand materializes the matrix: loadrun's defaults, then the matrix
// defaults, then either one value per dimension (the cartesian product,
// each run named by its dimension fragments) or an explicit scenario,
// all laid onto one Scenario. Inconsistent combinations are not
// silently dropped — the returned notes list one line per skip.
func (m *Matrix) Expand() (runs []Scenario, notes []string, err error) {
	base := Scenario{Config: loadrun.Defaults()}
	if err := base.apply(m.Defaults); err != nil {
		return nil, nil, fmt.Errorf("defaults: %w", err)
	}
	for key := range m.Dims {
		if !slices.ContainsFunc(dimLabels, func(d dimLabel) bool { return d.key == key }) {
			return nil, nil, fmt.Errorf("dims: %q is not a sweepable dimension", key)
		}
	}
	// A matrix that sweeps nothing contributes no product runs — only
	// the explicit scenario list.
	var combos []Scenario
	for _, dim := range dimLabels {
		values := m.Dims[dim.key]
		if len(values) == 0 {
			continue
		}
		if combos == nil {
			combos = []Scenario{base}
		}
		next := make([]Scenario, 0, len(combos)*len(values))
		for _, c := range combos {
			for _, raw := range values {
				s := c
				if err := s.SetJSON(dim.key, raw); err != nil {
					return nil, nil, fmt.Errorf("dims: %w", err)
				}
				if s.Name != "" {
					s.Name += "-"
				}
				s.Name += dim.fragment(reflect.ValueOf(s.Field(dim.key)).Elem())
				next = append(next, s)
			}
		}
		combos = next
	}
	for i, ex := range m.Scenarios {
		s := base
		if err := s.apply(ex); err != nil {
			return nil, nil, fmt.Errorf("scenarios[%d]: %w", i, err)
		}
		if s.Name == "" {
			s.Name = fmt.Sprintf("scenario-%02d", i)
		}
		combos = append(combos, s)
	}
	seen := make(map[string]bool, len(combos))
	for _, s := range combos {
		if r := skipReason(s); r != "" {
			notes = append(notes, fmt.Sprintf("skip %s: %s", s.Name, r))
			continue
		}
		if seen[s.Name] {
			return nil, nil, fmt.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		runs = append(runs, s)
	}
	return runs, notes, nil
}
