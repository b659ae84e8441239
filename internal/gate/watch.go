package gate

import (
	"sync"
	"sync/atomic"
	"time"

	"matchmake/internal/cluster"
)

// WatchEvent is one cluster lifecycle event as delivered to a tenant:
// the JSON object streamed (newline-delimited) by GET /v1/watch and
// the decoded form of a binary gopEvents row. Port-scoped events
// (register, deregister, migrate) carry the tenant-local port and are
// delivered only to the owning tenant; infrastructure events (crash,
// restore, proc-down, proc-up, epoch) are broadcast to every tenant —
// a kill -9'd node-shard process shows up on every watcher as a
// proc-down with the wire slot range it served.
type WatchEvent struct {
	// Seq is the hub-wide sequence number; gaps on a single watch
	// stream mean events were dropped (slow consumer) or scoped to
	// other tenants.
	Seq uint64 `json:"seq"`
	// Type is the event kind: register, deregister, migrate, crash,
	// restore, proc-down, proc-up or epoch.
	Type string `json:"type"`
	// Port is the tenant-local port for port-scoped events.
	Port string `json:"port,omitempty"`
	// Node is the node involved (server's node, or the crashed/restored
	// node).
	Node int64 `json:"node"`
	// Lo and Hi delimit the wire slot range [Lo, Hi) of a
	// proc-down/proc-up event.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Epoch is the new epoch number of an epoch event.
	Epoch uint64 `json:"epoch"`
	// UnixNanos is the hub's publish timestamp.
	UnixNanos int64 `json:"unix_nanos"`
}

// stamped is an event in the hub's ring: the raw cluster event (ports
// still folded) plus its sequence number and timestamp.
type stamped struct {
	ev  cluster.Event
	seq uint64
	at  int64
}

// Hub fans cluster lifecycle events out to watch subscribers and keeps
// a bounded replay ring for polling clients. Install Publish as the
// backing cluster's Options.OnEvent. Publishing never blocks: a
// subscriber that stops draining its channel loses events (counted on
// the subscription) rather than stalling the cluster's hot path.
type Hub struct {
	mu     sync.Mutex
	ring   []stamped
	seq    uint64
	subs   map[*Sub]struct{}
	closed bool
}

// DefaultRing is the replay-ring capacity NewHub uses when given a
// non-positive size.
const DefaultRing = 1024

// NewHub builds a hub with a replay ring of the given capacity
// (DefaultRing if size <= 0).
func NewHub(size int) *Hub {
	if size <= 0 {
		size = DefaultRing
	}
	return &Hub{
		ring: make([]stamped, 0, size),
		subs: make(map[*Sub]struct{}),
	}
}

// Publish stamps and distributes one cluster event. It is safe for
// concurrent use and never blocks on slow subscribers; install it as
// cluster Options.OnEvent.
func (h *Hub) Publish(ev cluster.Event) {
	now := time.Now().UnixNano()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	st := stamped{ev: ev, seq: h.seq, at: now}
	if len(h.ring) < cap(h.ring) {
		h.ring = append(h.ring, st)
	} else {
		h.ring[int(h.seq-1)%cap(h.ring)] = st
	}
	for s := range h.subs {
		we, ok := eventFor(s.tenant, st)
		if !ok {
			continue
		}
		select {
		case s.C <- we:
		default:
			s.dropped.Add(1)
		}
	}
}

// Seq returns the sequence number of the most recently published
// event (0 before the first).
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Subscribe opens a watch subscription scoped to tenantID with a
// delivery buffer of buf events (minimum 1). The caller must drain
// Sub.C; events arriving while the buffer is full are dropped and
// counted. Close the subscription when done.
func (h *Hub) Subscribe(tenantID string, buf int) *Sub {
	if buf < 1 {
		buf = 1
	}
	s := &Sub{C: make(chan WatchEvent, buf), tenant: tenantID, hub: h}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(s.C)
		s.done = true
		return s
	}
	h.subs[s] = struct{}{}
	return s
}

// EventsSince returns the ring's events with sequence numbers greater
// than after that are visible to tenantID (at most max; 0 means all),
// plus the hub's current sequence number. A client that polls with
// the returned seq as its next after never sees an event twice; a
// client that falls more than a ring behind silently misses the
// overwritten span.
func (h *Hub) EventsSince(tenantID string, after uint64, max int) ([]WatchEvent, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []WatchEvent
	n := len(h.ring)
	// The ring is circular once full; oldest entry is at seq h.seq-n+1.
	for i := 0; i < n; i++ {
		var st stamped
		if n < cap(h.ring) {
			st = h.ring[i]
		} else {
			st = h.ring[int(h.seq-uint64(n)+uint64(i))%cap(h.ring)]
		}
		if st.seq <= after {
			continue
		}
		if we, ok := eventFor(tenantID, st); ok {
			out = append(out, we)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out, h.seq
}

// close shuts the hub: subscriber channels are closed and further
// publishes are dropped.
func (h *Hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		if !s.done {
			close(s.C)
			s.done = true
		}
		delete(h.subs, s)
	}
}

// eventFor scopes one stamped event to a tenant: port-scoped events
// are delivered only to the owning tenant with the namespace prefix
// stripped; infrastructure events are broadcast.
func eventFor(tenantID string, st stamped) (WatchEvent, bool) {
	we := WatchEvent{
		Seq:       st.seq,
		Type:      st.ev.Type.String(),
		Node:      int64(st.ev.Node),
		Lo:        st.ev.Lo,
		Hi:        st.ev.Hi,
		Epoch:     st.ev.Epoch,
		UnixNanos: st.at,
	}
	switch st.ev.Type {
	case cluster.EvRegister, cluster.EvDeregister, cluster.EvMigrate:
		port, ok := unfoldPort(tenantID, st.ev.Port)
		if !ok {
			return WatchEvent{}, false
		}
		we.Port = string(port)
	}
	return we, true
}

// Sub is one live watch subscription. Read events from C; the channel
// closes when the subscription or the hub closes.
type Sub struct {
	// C delivers the tenant-scoped event stream.
	C chan WatchEvent

	tenant  string
	dropped atomic.Int64
	hub     *Hub
	done    bool // guarded by hub.mu
}

// Dropped returns how many events were lost because the subscriber's
// buffer was full.
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Close tears the subscription down and closes C.
func (s *Sub) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.done {
		return
	}
	delete(h.subs, s)
	close(s.C)
	s.done = true
}
