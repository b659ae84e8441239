package loadrun

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"matchmake/internal/cluster"
)

// Config declares one load run: the transport and cluster shape, the
// workload, and the chaos loops layered on top. It is the run
// description's one declaration — each field's tags are its whole
// table row: `flag` the mmload flag name (the sweep scenario key is the
// same name with '-' → '_'), `def` the default in flag syntax (absent =
// the zero value, which means "off" for every optional feature) and
// `usage` the help text. Defaults, Flags, the JSON overlay and
// Overrides all walk these tags, so a new knob is one line here plus
// the code that reads it.
type Config struct {
	Transport   string        `flag:"transport" def:"mem" usage:"transport: mem (in-process fast path) | sim (paper-exact simulator) | net (socket cluster; needs -addrs) | gate (mmgate service edge; needs -gate-addr)"`
	GateAddr    string        `flag:"gate-addr" usage:"gate transport: mmgate wire address (the WIRE line mmgate prints)"`
	GateToken   string        `flag:"gate-token" def:"dev" usage:"gate transport: bearer token (a tenant from the gateway's -tenants table)"`
	Addrs       string        `flag:"addrs" usage:"net transport: comma-separated node-process addresses in partition order (from mmctl up or mmnode)"`
	StateFile   string        `flag:"state" usage:"net transport: read the address list from this mmctl state file instead of -addrs"`
	WatchState  time.Duration `flag:"watch-state" usage:"net transport: poll the -state file this often and rescale onto layout changes (0 = off)"`
	NetConns    int           `flag:"net-conns" usage:"net transport: connections per node process (0 = default; superseded by -net-stripes)"`
	NetStripes  int           `flag:"net-stripes" usage:"net/gate transport: connection stripes per destination process (0 = max(2, GOMAXPROCS))"`
	NetCoalesce bool          `flag:"net-coalesce" def:"true" usage:"net transport: coalesce concurrent locates into shared wire floods and concurrent hint probes into shared probe frames (-net-coalesce=false for one frame per call)"`
	Repair      time.Duration `flag:"repair" usage:"net transport: re-post every server's postings to node processes that came back, checking this often (0 = off; for runs beside mmctl kill)"`

	Topo     string  `flag:"topology" def:"complete" usage:"topology: complete|grid|ring|hypercube"`
	Nodes    int     `flag:"nodes" def:"64" usage:"network size (grid needs a rectangle, hypercube a power of two)"`
	Strategy string  `flag:"strategy" def:"checkerboard" usage:"strategy: checkerboard|random|broadcast|sweep"`
	Ports    int     `flag:"ports" def:"16" usage:"number of services (one server each)"`
	Workload string  `flag:"workload" def:"zipf" usage:"port popularity: uniform|zipf"`
	ZipfS    float64 `flag:"zipf-s" def:"1.2" usage:"Zipf skew exponent (> 1)"`
	ZipfV    float64 `flag:"zipf-v" def:"1" usage:"Zipf value offset (≥ 1)"`

	// The chaos loops, each a sustained background process beside the
	// load. Churn is §1.3's crash/re-register dynamics: the server
	// deregisters, its node crashes (volatile cache lost), a replacement
	// registers elsewhere, the node is restored next tick. KillRate is
	// the §2.4/§5 fault model replication is measured against: one
	// random rendezvous node down at a time, so r = 1 pairs fail and
	// r ≥ 2 pairs fall through. ResizeEvery alternates the active node
	// count between Nodes and ResizeTo under fresh epochs, with servers
	// and clients kept inside the smaller membership.
	Churn       time.Duration `flag:"churn" usage:"crash/re-register one service this often (0 = off)"`
	Replicas    int           `flag:"replicas" def:"1" usage:"replication factor r of the rendezvous strategy (1 = unreplicated)"`
	KillRate    float64       `flag:"kill-rate" usage:"crash random non-server nodes at this rate per second (0 = off)"`
	CorruptRate float64       `flag:"corrupt-rate" usage:"inject adversarial posting corruption (drops, duplicates, stale and bit-flipped entries) at this rate per second while anti-entropy reconciles in the background; the report gains a time-to-quiescence line (0 = off)"`
	ReconEvery  time.Duration `flag:"reconcile-interval" usage:"anti-entropy background round period (0 = off, or 50ms when -corrupt-rate is set)"`
	ByzRate     float64       `flag:"byzantine-rate" usage:"re-arm the answer-forging adversary (-liars lying rendezvous nodes, fresh seed per wave) at this rate per second; the report gains a forged-answers line (0 = off)"`
	Liars       int           `flag:"liars" def:"1" usage:"byzantine: number of lying rendezvous nodes per wave (the f of r ≥ 2f+1)"`
	VoteQuorum  int           `flag:"vote-quorum" usage:"answer voting: flood this many replica families per locate and believe only a strict majority (needs -replicas ≥ 2; 0 = first-answer fallthrough)"`
	ResizeEvery time.Duration `flag:"resize-interval" usage:"elastic membership churn: resize (or finish the draining resize) this often (0 = off)"`
	ResizeTo    int           `flag:"resize-to" usage:"resize churn: the smaller active node count to shrink to (0 = 3n/4)"`

	Duration    time.Duration `flag:"duration" def:"2s" usage:"measurement duration"`
	Concurrency int           `flag:"concurrency" def:"8" usage:"closed-loop client goroutines"`
	Rate        int           `flag:"rate" usage:"open-loop arrival rate in locates/sec (0 = closed loop)"`
	Batch       int           `flag:"batch" usage:"closed loop: issue locates in batches of N via LocateBatch (0 = single locates)"`
	Hints       bool          `flag:"hints" usage:"enable the per-client address hint cache (probe-validated, generation-invalidated)"`
	Weighted    bool          `flag:"weighted" usage:"mem transport: frequency-weighted strategy (hot ports switch to a post-heavy split)"`
	HotPorts    int           `flag:"hot" def:"2" usage:"weighted: number of ports to keep promoted"`
	HotRefresh  time.Duration `flag:"hot-refresh" def:"250ms" usage:"weighted: reclassification period"`
	HotAlpha    float64       `flag:"hot-alpha" def:"16" usage:"weighted: assumed locate:post frequency ratio (sets the hot query size √(n/α))"`

	Shards     int   `flag:"shards" usage:"cluster shards (0 = GOMAXPROCS)"`
	Workers    int   `flag:"workers" usage:"workers per shard (0 = default)"`
	Queue      int   `flag:"queue" usage:"per-shard async queue depth (0 = default)"`
	NoCoalesce bool  `flag:"no-coalesce" usage:"net/gate transports: give every locate its own flood (mem and sim never share one)"`
	Seed       int64 `flag:"seed" def:"1" usage:"workload RNG seed"`
}

// rows calls f with every field's flag name, tags and address, in
// declaration order.
func (cfg *Config) rows(f func(name string, tag reflect.StructTag, ptr any)) {
	v := reflect.ValueOf(cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		f(tag.Get("flag"), tag, v.Field(i).Addr().Interface())
	}
}

// Flags registers the named fields (all of them when names is empty) on
// fs under their table names and usage strings, bound to cfg and
// defaulting to cfg's current values — so a binary's flag defaults are
// whatever Config it starts from, normally Defaults().
func (cfg *Config) Flags(fs *flag.FlagSet, names ...string) {
	registered := 0
	cfg.rows(func(name string, tag reflect.StructTag, ptr any) {
		if len(names) > 0 && !slices.Contains(names, name) {
			return
		}
		registered++
		usage := tag.Get("usage")
		switch p := ptr.(type) {
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *time.Duration:
			fs.DurationVar(p, name, *p, usage)
		default:
			panic(fmt.Sprintf("loadrun: field -%s has a type the flag table cannot carry: %T", name, ptr))
		}
	})
	if len(names) > 0 && registered != len(names) {
		panic(fmt.Sprintf("loadrun: Flags%q names a flag the table does not have", names))
	}
}

// Defaults returns the Config of the table's `def` column — mmload's
// flag defaults: the 64-node complete-network checkerboard under a
// Zipf(1.2) closed loop. The defaults are parsed by the flag set that
// parses the command line, so the two cannot disagree on syntax.
func Defaults() Config {
	var cfg Config
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	cfg.Flags(fs)
	cfg.rows(func(name string, tag reflect.StructTag, _ any) {
		if def, ok := tag.Lookup("def"); ok {
			if err := fs.Set(name, def); err != nil {
				panic(fmt.Sprintf("loadrun: default of -%s: %v", name, err))
			}
		}
	})
	return cfg
}

// Field returns a pointer to the field whose scenario key is key (a
// *string, *int, *int64, *float64, *bool or *time.Duration), or nil
// when the table has no such key.
func (cfg *Config) Field(key string) any {
	var field any
	cfg.rows(func(name string, _ reflect.StructTag, ptr any) {
		if strings.ReplaceAll(name, "-", "_") == key {
			field = ptr
		}
	})
	return field
}

// SetJSON sets the field whose scenario key is key from a JSON value;
// durations are written "250ms" (a bare nanosecond count also decodes).
// Setting only the keys a document has is the presence-based overlay
// sweep matrices are merged with: an explicit zero overrides a default,
// an absent key inherits it.
func (cfg *Config) SetJSON(key string, raw []byte) error {
	ptr := cfg.Field(key)
	if ptr == nil {
		return fmt.Errorf("unknown field %q", key)
	}
	var s string
	if d, ok := ptr.(*time.Duration); ok && json.Unmarshal(raw, &s) == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("%s: duration %q: %w", key, s, err)
		}
		*d = dd
		return nil
	}
	if err := json.Unmarshal(raw, ptr); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// Overrides returns, by scenario key, every field whose value differs
// from Defaults() — the document SetJSON rebuilds cfg from. Durations
// are rendered as strings.
func (cfg Config) Overrides() map[string]any {
	out := make(map[string]any)
	is, def := reflect.ValueOf(cfg), reflect.ValueOf(Defaults())
	for i := 0; i < is.NumField(); i++ {
		v := is.Field(i).Interface()
		if v == def.Field(i).Interface() {
			continue
		}
		if d, ok := v.(time.Duration); ok {
			v = d.String()
		}
		out[strings.ReplaceAll(is.Type().Field(i).Tag.Get("flag"), "-", "_")] = v
	}
	return out
}

// stripes resolves the connection-stripe count for the net and gate
// transports: NetStripes wins, the older NetConns spelling still
// works, and zero defers to netwire.NewPool's max(2, GOMAXPROCS)
// default.
func (cfg Config) stripes() int {
	if cfg.NetStripes != 0 {
		return cfg.NetStripes
	}
	return cfg.NetConns
}

// NetOptions assembles the NetOptions every socket-cluster client in
// the repo dials with, from the wire-tuning knobs.
func (cfg Config) NetOptions() cluster.NetOptions {
	return cluster.NetOptions{
		ConnsPerProc:      cfg.stripes(),
		CallTimeout:       30 * time.Second,
		DisableCoalescing: !cfg.NetCoalesce,
		RepairInterval:    cfg.Repair,
	}
}

// Validate rejects inconsistent Configs with the messages the mmload
// flags have always produced. It looks at cfg alone — what needs the
// built topology or the transport is checked by Run.
func (cfg Config) Validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("need at least 2 nodes")
	}
	if cfg.Ports < 1 {
		return fmt.Errorf("need at least 1 port")
	}
	if cfg.Rate > 0 && cfg.Batch > 0 {
		return fmt.Errorf("-batch applies to the closed loop only; drop -rate to measure LocateBatch")
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("-replicas must be ≥ 1, got %d", cfg.Replicas)
	}
	if cfg.Replicas > 1 && cfg.Weighted {
		return fmt.Errorf("-replicas and -weighted are mutually exclusive")
	}
	if cfg.KillRate < 0 {
		return fmt.Errorf("-kill-rate must be ≥ 0, got %v", cfg.KillRate)
	}
	if cfg.CorruptRate < 0 {
		return fmt.Errorf("-corrupt-rate must be ≥ 0, got %v", cfg.CorruptRate)
	}
	if cfg.ByzRate < 0 {
		return fmt.Errorf("-byzantine-rate must be ≥ 0, got %v", cfg.ByzRate)
	}
	if cfg.ByzRate > 0 && cfg.Liars < 1 {
		return fmt.Errorf("-liars must be ≥ 1, got %d", cfg.Liars)
	}
	if cfg.VoteQuorum < 0 {
		return fmt.Errorf("-vote-quorum must be ≥ 0, got %d", cfg.VoteQuorum)
	}
	if cfg.VoteQuorum >= 2 && cfg.Replicas < 2 {
		return fmt.Errorf("-vote-quorum %d needs -replicas ≥ 2 (voting is across replica families)", cfg.VoteQuorum)
	}
	if (cfg.ByzRate > 0 || cfg.VoteQuorum > 0) && cfg.ResizeEvery > 0 {
		return fmt.Errorf("-byzantine-rate/-vote-quorum and -resize-interval are mutually exclusive")
	}
	return nil
}

// validateGate rejects Config fields that configure machinery living
// on the gateway's side of the wire: with the gate transport the
// rendezvous strategy, hint cache, fault injection and membership
// churn all belong to the mmgate process, not the load driver.
func (cfg Config) validateGate() error {
	if cfg.GateAddr == "" {
		return fmt.Errorf("-transport gate needs -gate-addr (the WIRE line mmgate prints)")
	}
	switch {
	case cfg.Addrs != "" || cfg.StateFile != "":
		return fmt.Errorf("-addrs/-state belong to -transport net; the gateway owns its own cluster")
	case cfg.Hints:
		return fmt.Errorf("-hints is gateway-side: start mmgate with -hints instead")
	case cfg.Weighted:
		return fmt.Errorf("-weighted is gateway-side; not available over -transport gate")
	case cfg.Replicas > 1:
		return fmt.Errorf("-replicas is gateway-side: start mmgate with -replicas instead")
	case cfg.Churn > 0 || cfg.KillRate > 0:
		return fmt.Errorf("-churn/-kill-rate need direct transport access; not available over -transport gate")
	case cfg.ResizeEvery > 0 || cfg.WatchState > 0:
		return fmt.Errorf("membership churn (-resize-interval/-watch-state) is not available over -transport gate")
	case cfg.CorruptRate > 0 || cfg.ReconEvery > 0:
		return fmt.Errorf("-corrupt-rate/-reconcile-interval need direct transport access; not available over -transport gate")
	case cfg.ByzRate > 0 || cfg.VoteQuorum > 0:
		return fmt.Errorf("-byzantine-rate/-vote-quorum need direct transport access; not available over -transport gate")
	}
	return nil
}
