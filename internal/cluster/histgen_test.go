package cluster

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// historySeeds, FuzzHistories' seed corpus, covers every genWorlds world
// (a history's world is its seed modulo their count). CI fuzzes past them.
const historySeeds = 16

// genWorlds are the worlds generated histories run in, with their node
// count and replication factor.
var genWorlds = []struct {
	world string
	n, r  int
}{
	{"complete 16", 16, 1}, {"grid 4 4", 16, 1}, {"complete 36 r=2", 36, 2}, {"complete 36 r=3", 36, 3},
	{"complete 24 active=16", 24, 1}, {"complete 24 active=16 r=2", 24, 2}, {"complete 36 weighted", 36, 1},
	{"hypercube 4", 16, 1}, {"ccc 3", 24, 1}, {"plane 3", 13, 1}, {"hierarchy 3", 27, 1}, {"random 20", 20, 1}, {"ring 12", 12, 1},
	{"complete 16 hash=1 r=3", 16, 3}, {"complete 16 hash=3", 16, 1},
}

// genHistory is the seeded random history: a world, its columns and
// about forty steps, some of them concurrent groups. Every eighth
// history adds a net column, which costs loopback round trips.
func genHistory(seed uint64) *history {
	rng := rand.New(rand.NewPCG(seed, 1985))
	w := genWorlds[seed%uint64(len(genWorlds))]
	elastic, weighted := strings.Contains(w.world, "active"), strings.Contains(w.world, "weighted")
	cols := "model mem sim"
	if seed%8 == 0 {
		cols += " net"
	}
	// A stale hint restarts the fallthrough at the family after the one
	// that resolved it, so with several families a hinted cluster may name
	// another live server of the port than a bare transport: hints only
	// where there is one family.
	if w.r == 3 {
		cols += " mem+vote"
	} else if w.r == 1 && !elastic && rng.IntN(2) == 0 {
		cols += " mem+hints"
	}
	pick := func(s ...string) string { return s[rng.IntN(len(s))] }
	n := func(bound int) int { return rng.IntN(bound) }
	node := func() int { return map[bool]int{true: w.n + 3, false: n(w.n)}[n(25) == 0] }
	clients := func() string { return pick(fmt.Sprint(node()), fmt.Sprintf("%d-%d/%d", n(3), w.n-1, 2+n(3))) }
	ports := func() string { return strings.Join(strings.Split("abcd", "")[n(2):3+n(2)], ",") }
	system, seq := n(2) == 0, 1
	reg := func(sep string) string { return fmt.Sprintf("%s%s%d", pick("a", "b", "c", "d"), sep, node()) }
	var b strings.Builder
	fmt.Fprintf(&b, "world %s\ncolumns %s\n", w.world, cols)
	for steps := 0; steps < 40; steps++ {
		ref := pick("a", "b", "c", "d", "a.2")
		switch k := n(20); {
		case k < 2:
			fmt.Fprintf(&b, "register %s\n", reg(" "))
		case k < 3:
			fmt.Fprintf(&b, "post-batch %s %s\n", reg("@"), reg("@"))
		case k < 5:
			fmt.Fprintf(&b, "%s\n", pick("migrate "+ref+" "+fmt.Sprint(node()), "deregister "+ref, "repost "+ref))
		case k < 7:
			fmt.Fprintf(&b, "%s %d\n", pick("crash", "restore", "restore"), node())
		case k < 8 && elastic && system:
			seq++
			fmt.Fprintf(&b, "resize %d %s %d\n", seq, pick("16", "20", "24"), w.r)
		case k < 9 && elastic:
			b.WriteString("finish-resize\n")
		case k < 10 && system:
			fmt.Fprintf(&b, "corrupt %d %d\n", n(100), 1+n(8))
		case k < 11 && system:
			b.WriteString("reconcile\n")
		case k < 12 && weighted && system:
			fmt.Fprintf(&b, "set-hot-ports %s\n", ports())
		case k < 13:
			fmt.Fprintf(&b, "%s\n", pick("disarm", fmt.Sprintf("arm %d %d", n(100), 1+n(2))))
		case k < 14:
			fmt.Fprintf(&b, "locate-all %s %s\n", clients(), ports())
		case k < 15:
			fmt.Fprintf(&b, "locate-batch %s %s\n", clients(), ports())
		case k < 16:
			fmt.Fprintf(&b, "locate-replica %d %s %s\n", n(w.r+1), clients(), ports())
		case k < 17:
			fmt.Fprintf(&b, "probe %s %s %d\n", clients(), ref, node())
		default:
			fmt.Fprintf(&b, "locate %s %s\n", clients(), ports())
		}
		if n(6) == 0 { // a concurrent group: one goroutine per port
			for i, q := range rng.Perm(4)[:2+n(2)] {
				p := string(rune('a' + q))
				fmt.Fprintf(&b, "%s%s\n", map[bool]string{true: "& "}[i > 0], pick("locate "+clients()+" "+p, "locate "+clients()+" "+p,
					fmt.Sprintf("probe %s %s %d", clients(), p, node()), fmt.Sprintf("migrate %s %d", p, node()), "repost "+p))
			}
		}
	}
	if n(4) == 0 {
		b.WriteString("close\n")
	}
	h, err := parseHistory(b.String())
	if err != nil {
		panic(err) // the generator wrote a line outside the grammar
	}
	return h
}

// shrink deletes steps greedily, last first, while h still fails.
func shrink(t testing.TB, h *history) *history {
	for i := len(h.steps) - 1; i >= 0; i-- {
		c := &history{world: h.world, cols: h.cols, steps: slices.Delete(slices.Clone(h.steps), i, i+1)}
		if _, err := parseHistory(c.String()); err == nil && checkHistory(t, c) != nil {
			h = c
		}
	}
	return h
}

// FuzzHistories runs generated histories on the runner. A failing seed
// is shrunk and written to testdata/histories, which TestHistories
// replays on every run.
func FuzzHistories(f *testing.F) {
	for seed := range uint64(historySeeds) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		t.Parallel()
		h := genHistory(seed)
		if back, err := parseHistory(h.String()); err != nil || back.String() != h.String() {
			t.Fatalf("history does not round-trip (%v):\n%s", err, h)
		}
		if err := checkHistory(t, h); err != nil {
			h = shrink(t, h)
			path := filepath.Join("testdata", "histories", fmt.Sprintf("seed-%d.txt", seed))
			_ = os.MkdirAll(filepath.Dir(path), 0o755)
			if werr := os.WriteFile(path, []byte(h.String()), 0o644); werr != nil {
				t.Log(werr)
			}
			t.Fatalf("seed %d: %v\nshrunk to %s:\n%s", seed, checkHistory(t, h), path, h)
		}
	})
}

// TestHistories replays every committed history.
func TestHistories(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "histories", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed histories: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if h := mustHistory(t, string(text)); h.String() != string(text) {
				t.Fatalf("%s is not in the canonical text form", f)
			}
			runHistory(t, string(text))
		})
	}
}
