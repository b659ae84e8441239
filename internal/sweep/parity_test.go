package sweep

import (
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"matchmake/internal/sweep/loadrun"
)

// goldenFlags is mmload's flag set as name=default, captured from
// `mmload -h` before loadrun.Config's table declared it (42 flags),
// plus the one row added since, less the simulator's two timeout rows
// (-locate-timeout, -collect-window), deleted with its clock.
var goldenFlags = strings.Fields(`
	addrs= batch=0 byzantine-rate=0 churn=0s concurrency=8 corrupt-rate=0
	duration=2s gate-addr= gate-token=dev hints=false hot=2 hot-alpha=16 hot-refresh=250ms
	kill-rate=0 liars=1 net-coalesce=true net-conns=0 net-stripes=0
	no-coalesce=false nodes=64 ports=16 queue=0 rate=0 reconcile-interval=0s repair=0s replicas=1
	resize-interval=0s resize-to=0 seed=1 shards=0 state= strategy=checkerboard topology=complete
	transport=mem vote-quorum=0 watch-state=0s weighted=false workers=0 workload=zipf zipf-s=1.2 zipf-v=1`)

// goldenExpansions are the scenario names the committed matrices
// expanded to before Scenario embedded loadrun.Config; EXPERIMENTS.md's
// marker blocks and every recorded results directory are keyed by them.
// None of the three skips a combination.
var goldenExpansions = map[string][]string{
	"smoke.json": strings.Fields(`
		mem-r1-kill10-nocorrupt mem-r1-kill10-corrupt50 mem-r2-kill10-nocorrupt mem-r2-kill10-corrupt50
		net-r1-kill10-nocorrupt net-r1-kill10-corrupt50 net-r2-kill10-nocorrupt net-r2-kill10-corrupt50
		mem-plain net-plain byz-q3-liar`),
	"full.json": strings.Fields(`
		r1-kill2 r1-kill8 r2-kill2 r2-kill8 r3-kill2 r3-kill8
		mem-plain sim-plain net-plain mem-hints mem-batch16
		byz-r2-first-answer byz-r2-q2-honest byz-r2-q2-liar byz-r3-first-answer byz-r3-q3-honest
		byz-r3-q3-liar byz-r3-novote-liar corrupt20-r2 corrupt20-r3 corrupt80-r2
		net-kill2-r1 net-kill2-r2 net-corrupt20-r2 net-q3-liar-r3`),
	"compose.json": strings.Fields(`r1-nokill r1-kill2 r2-nokill r2-kill2`),
}

// TestFlagScenarioParity pins the one declaration of the run
// description from outside: loadrun.Config's table is mmload's flag set
// (names and defaults unchanged), every row's scenario key is its flag
// name underscored and nothing else, every key the committed matrices
// and the table fixture use still decodes, and the committed matrices
// expand to the names they always have.
func TestFlagScenarioParity(t *testing.T) {
	cfg := loadrun.Defaults()
	fs := flag.NewFlagSet("mmload", flag.ContinueOnError)
	cfg.Flags(fs)
	var flags []string
	fs.VisitAll(func(f *flag.Flag) {
		flags = append(flags, f.Name+"="+f.DefValue)
		key := strings.ReplaceAll(f.Name, "-", "_")
		if cfg.Field(key) == nil {
			t.Errorf("flag -%s has no scenario key %q", f.Name, key)
		}
		if key != f.Name && cfg.Field(f.Name) != nil {
			t.Errorf("flag -%s is also a scenario key under its hyphenated spelling", f.Name)
		}
	})
	if !slices.Equal(flags, goldenFlags) {
		t.Errorf("mmload flag set = %v\nwant %v", flags, goldenFlags)
	}

	fixtureRecords(t)
	files, err := filepath.Glob(filepath.Join("..", "..", "sweeps", "*.json"))
	if err != nil || len(files) < len(goldenExpansions) {
		t.Fatalf("sweeps/*.json = %v (err %v)", files, err)
	}
	for _, f := range files {
		m, err := ReadMatrix(f)
		if err != nil {
			t.Errorf("%s no longer decodes: %v", f, err)
			continue
		}
		want, pinned := goldenExpansions[filepath.Base(f)]
		if !pinned {
			continue
		}
		runs, notes, err := m.Expand()
		if err != nil || len(notes) != 0 {
			t.Errorf("%s: notes %v, err %v", f, notes, err)
		}
		var names []string
		for _, s := range runs {
			names = append(names, s.Name)
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s expands to %v\nwant %v", f, names, want)
		}
	}
}
