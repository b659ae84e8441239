package cluster

import (
	"sync/atomic"

	"matchmake/internal/core"
	"matchmake/internal/graph"
)

// EventType discriminates cluster lifecycle events (see Event).
type EventType uint8

// Lifecycle event kinds delivered to an EventSink. Register,
// deregister and migrate events are emitted by the Cluster itself as
// the operations pass through it; crash, restore and process-death
// events come from the transport (an EventSource), which is the layer
// that actually observes them — including kill -9'd node-shard
// processes noticed by the socket transport's health tracking.
const (
	// EvRegister reports a successful server registration (Port, Node).
	EvRegister EventType = iota + 1
	// EvDeregister reports a server deregistration (Port, Node).
	EvDeregister
	// EvMigrate reports a server migration; Node is the new home.
	EvMigrate
	// EvCrash reports a node explicitly marked crashed (Node).
	EvCrash
	// EvRestore reports a crashed node brought back (Node).
	EvRestore
	// EvProcDown reports a node-shard process observed dead on the
	// socket transport; [Lo, Hi) is the wire slot range it owned. This is
	// the kill -9 signal: the first failed call against the process
	// raises it, before any repair has run.
	EvProcDown
	// EvProcUp reports a node-shard process answering again after a
	// detected death, with its range's lost state re-posted by the
	// repair loop; [Lo, Hi) is the recovered wire slot range.
	EvProcUp
	// EvEpoch reports an elastic-membership transition: a new epoch
	// (sequence number Epoch) became the serving epoch.
	EvEpoch
)

// String names the event type for reports and wire encodings.
func (t EventType) String() string {
	switch t {
	case EvRegister:
		return "register"
	case EvDeregister:
		return "deregister"
	case EvMigrate:
		return "migrate"
	case EvCrash:
		return "crash"
	case EvRestore:
		return "restore"
	case EvProcDown:
		return "proc-down"
	case EvProcUp:
		return "proc-up"
	case EvEpoch:
		return "epoch"
	default:
		return "unknown"
	}
}

// Event is one cluster lifecycle occurrence pushed to the EventSink:
// the observable state changes a service edge needs to stream to
// watching clients (registrations appearing, servers going away, nodes
// and node-shard processes crashing, membership epochs turning over).
// Which fields are meaningful depends on Type; the rest are zero.
type Event struct {
	// Type is the event kind.
	Type EventType
	// Port is the registered service port (register/deregister/migrate
	// events).
	Port core.Port
	// Node is the server's home node, or the crashed/restored node.
	Node graph.NodeID
	// Lo and Hi bound the wire slot range [Lo, Hi) of a dead or
	// recovered node-shard process.
	Lo, Hi int
	// Epoch is the serving epoch's sequence number (epoch events).
	Epoch uint64
}

// EventSink receives lifecycle events. Sinks run inline on the
// emitting path — a registration, a crash mark, the socket transport's
// health tracking — so they must be fast and non-blocking; buffer and
// fan out elsewhere (the gate's watch hub does).
type EventSink func(Event)

// EventSource is implemented by transports that can push lifecycle
// events they observe below the Cluster's API surface: explicit
// crash/restore marks, and — on the socket transport — node-shard
// process deaths and repair-loop recoveries. Cluster.New wires
// Options.OnEvent through to the transport automatically.
type EventSource interface {
	// SetEventSink installs the sink (nil disables emission). It must
	// be safe to call concurrently with operations.
	SetEventSink(EventSink)
}

// eventSink is the shared sink holder transports embed: an atomic
// pointer so emission on hot paths is one load, and installation can
// race operations safely.
type eventSink struct {
	fn atomic.Pointer[EventSink]
}

// set installs fn (nil clears).
func (s *eventSink) set(fn EventSink) {
	if fn == nil {
		s.fn.Store(nil)
		return
	}
	s.fn.Store(&fn)
}

// emit delivers ev to the installed sink, if any.
func (s *eventSink) emit(ev Event) {
	if fn := s.fn.Load(); fn != nil {
		(*fn)(ev)
	}
}

// eventRef wraps a transport ServerRef so lifecycle operations on the
// handle (deregister, migrate) reach the cluster's event sink; the
// transport only sees its own Register calls.
type eventRef struct {
	ServerRef
	sink EventSink
}

func (r *eventRef) Deregister() error {
	node := r.Node()
	err := r.ServerRef.Deregister()
	if err == nil {
		r.sink(Event{Type: EvDeregister, Port: r.Port(), Node: node})
	}
	return err
}

func (r *eventRef) Migrate(to graph.NodeID) error {
	err := r.ServerRef.Migrate(to)
	if err == nil {
		r.sink(Event{Type: EvMigrate, Port: r.Port(), Node: to})
	}
	return err
}

// wrapRef wraps ref for event emission when a sink is installed.
func (c *Cluster) wrapRef(ref ServerRef) ServerRef {
	if c.opts.OnEvent == nil || ref == nil {
		return ref
	}
	return &eventRef{ServerRef: ref, sink: c.opts.OnEvent}
}
