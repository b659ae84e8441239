package netwire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed reports a call on a closed Pool.
var ErrClientClosed = errors.New("netwire: client closed")

// connBufSize sizes a connection's buffered reader and writer: large
// enough that a burst of pipelined frames aggregates into one syscall
// per direction instead of one per frame.
const connBufSize = 64 << 10

// Counters aggregates wire-level traffic totals across every
// connection dialed with them: a transport hands one Counters to all
// its pools and reads frames/bytes per logical operation off snapshot
// deltas. A nil *Counters disables counting.
type Counters struct {
	framesSent atomic.Int64
	bytesSent  atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64
}

// Stats is one Counters snapshot. Byte totals count on-the-wire frame
// bytes (length prefix included).
type Stats struct {
	FramesSent, BytesSent int64
	FramesRecv, BytesRecv int64
}

// Snapshot returns the current totals; a nil receiver reads as zero so
// transports can expose stats unconditionally.
func (c *Counters) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		FramesSent: c.framesSent.Load(),
		BytesSent:  c.bytesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}

// Sub returns s - o, the traffic between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		FramesSent: s.FramesSent - o.FramesSent,
		BytesSent:  s.BytesSent - o.BytesSent,
		FramesRecv: s.FramesRecv - o.FramesRecv,
		BytesRecv:  s.BytesRecv - o.BytesRecv,
	}
}

// frameWireLen is the on-the-wire size of a frame with an n-byte
// payload: the uvarint length prefix plus the payload.
func frameWireLen(n int) int64 {
	pre := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		pre++
	}
	return int64(pre) + int64(n)
}

// Pending is one in-flight request started with Conn.Start (or
// Pool.Start), awaiting its response. done is a buffered signal channel
// so the reader goroutine never blocks handing a result over; handles
// (and their response buffers) are pooled, so a steady request stream
// allocates no bookkeeping. resp belongs to the handle, not the caller
// — an abandoned (timed-out) handle can then receive its late response
// without scribbling on a buffer the caller has already reused.
//
// Exactly one Wait must follow every successful Start: Wait consumes
// the handle and returns it to the pool.
type Pending struct {
	c      *Conn
	id     uint64
	done   chan struct{}
	resp   []byte
	status byte
	err    error
}

var pendingPool = sync.Pool{New: func() any { return &Pending{done: make(chan struct{}, 1)} }}

// timerPool recycles timeout timers across calls (Go 1.23+ timer
// semantics — no stale sends after Stop/Reset — make reuse safe), so a
// timeout-bounded call costs no timer allocation.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// Conn is one TCP connection with request pipelining: any number of
// calls may be outstanding at once, matched to responses by request id.
// A broken connection fails every pending call; the owning Pool redials
// on the next use.
type Conn struct {
	nc  net.Conn
	ctr *Counters

	wmu     sync.Mutex
	bw      *bufio.Writer
	writers atomic.Int32 // senders announced but not yet done writing

	// dead is written under mu, after err, and read there by Start;
	// Dead loads it without the lock readLoop takes per response.
	mu      sync.Mutex
	pending map[uint64]*Pending
	dead    atomic.Bool
	err     error

	nextID atomic.Uint64
}

// NewConn wraps an established connection and starts its reader. Wire
// traffic is tallied into ctr when non-nil; hand the same Counters to
// every connection whose totals should aggregate.
func NewConn(nc net.Conn, ctr *Counters) *Conn {
	c := &Conn{
		nc:      nc,
		ctr:     ctr,
		bw:      bufio.NewWriterSize(nc, connBufSize),
		pending: make(map[uint64]*Pending, 16),
	}
	go c.readLoop()
	return c
}

// readLoop dispatches response frames to their pending calls until the
// connection breaks, then fails everything still outstanding.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, connBufSize)
	var buf []byte
	for {
		payload, err := ReadFrame(br, buf)
		if err != nil {
			c.fail(fmt.Errorf("netwire: read: %w", err))
			return
		}
		buf = payload
		if c.ctr != nil {
			c.ctr.framesRecv.Add(1)
			c.ctr.bytesRecv.Add(frameWireLen(len(payload)))
		}
		d := NewDec(payload)
		id := d.Uvarint()
		status := d.Byte()
		if d.Err() != nil {
			c.fail(fmt.Errorf("netwire: bad response frame: %w", d.Err()))
			return
		}
		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if cl == nil {
			continue // cancelled (timed out); drop the late response
		}
		cl.status = status
		cl.resp = append(cl.resp[:0], d.b...)
		cl.done <- struct{}{}
	}
}

// fail marks the connection dead and fails every pending call with err.
func (c *Conn) fail(err error) {
	c.nc.Close()
	c.mu.Lock()
	if c.dead.Load() {
		c.mu.Unlock()
		return
	}
	c.err = err
	c.dead.Store(true)
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, cl := range pending {
		cl.err = err
		cl.done <- struct{}{}
	}
}

// Dead reports whether the connection has failed: one atomic load, so
// the pool's per-call liveness check never meets readLoop on c.mu.
func (c *Conn) Dead() bool { return c.dead.Load() }

// Close tears the connection down, failing any pending calls.
func (c *Conn) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// send writes one frame under the write lock and flushes with
// writev-style aggregation: a sender only flushes when no other sender
// is queued behind it, so under concurrency the last writer pushes
// everybody's frames to the kernel in one syscall. bufio spills
// oversized bursts on its own, so skipping the flush never strands a
// frame — some later queued writer always reaches the flush decision.
func (c *Conn) send(head, body []byte) error {
	c.writers.Add(1)
	c.wmu.Lock()
	err := WriteFrame2(c.bw, head, body)
	if c.writers.Add(-1) == 0 && err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err == nil && c.ctr != nil {
		c.ctr.framesSent.Add(1)
		c.ctr.bytesSent.Add(frameWireLen(len(head) + len(body)))
	}
	return err
}

// Start sends one request and returns its in-flight handle without
// waiting for the response; the caller collects it with Wait. Starting
// every request of a fan-out before waiting on any pipelines the round
// trips, so total latency is the slowest peer's, not the sum. req is
// the body (without id/op) and may be reused as soon as Start returns.
func (c *Conn) Start(op byte, req []byte) (*Pending, error) {
	cl := pendingPool.Get().(*Pending)
	cl.err = nil
	cl.c = c

	id := c.nextID.Add(1)
	cl.id = id
	c.mu.Lock()
	if c.dead.Load() {
		err := c.err
		c.mu.Unlock()
		pendingPool.Put(cl)
		return nil, err
	}
	c.pending[id] = cl
	c.mu.Unlock()

	hdr := GetBuf()
	head := AppendUvarint(*hdr, id)
	head = append(head, op)
	err := c.send(head, req)
	*hdr = head
	PutBuf(hdr)
	if err != nil {
		c.fail(fmt.Errorf("netwire: write: %w", err))
		<-cl.done // fail delivered the error
		err = cl.err
		pendingPool.Put(cl)
		return nil, err
	}
	return cl, nil
}

// Wait blocks for the response of a Start-ed request. The response
// body is appended to resp's backing array when it fits, so hot
// callers can pass a pooled buffer and see no allocation. timeout 0
// waits for the connection to deliver or break. Wait consumes the
// handle; it must not be used afterwards.
func (p *Pending) Wait(resp []byte, timeout time.Duration) (byte, []byte, error) {
	select {
	case <-p.done:
		// Already delivered — the common case on a pipelined burst —
		// so skip the timer machinery entirely.
	default:
		if timeout > 0 {
			t := getTimer(timeout)
			select {
			case <-p.done:
				putTimer(t)
			case <-t.C:
				putTimer(t)
				// Abandon the call: the reader drops the late response on
				// the floor, and the handle is not reused (its done signal
				// may still arrive).
				p.c.mu.Lock()
				delete(p.c.pending, p.id)
				p.c.mu.Unlock()
				select {
				case <-p.done:
					// The response raced the timeout; use it.
				default:
					return 0, nil, fmt.Errorf("netwire: call: timeout after %v", timeout)
				}
			}
		} else {
			<-p.done
		}
	}
	status, err := p.status, p.err
	body := append(resp[:0], p.resp...)
	pendingPool.Put(p)
	return status, body, err
}

// Call sends one request and blocks for its response: Start followed
// by Wait.
func (c *Conn) Call(op byte, req []byte, resp []byte, timeout time.Duration) (byte, []byte, error) {
	p, err := c.Start(op, req)
	if err != nil {
		return 0, nil, err
	}
	return p.Wait(resp, timeout)
}

// connSlot is one stripe of a Pool: the connection pointer plus the
// mutex that makes its redial single-flight.
type connSlot struct {
	conn atomic.Pointer[Conn]
	mu   sync.Mutex
}

// Pool is a striped set of pipelined connections to one address. Calls
// pick a stripe per call with a cheap thread-local random draw — no
// shared round-robin cache line — so hot destinations don't serialize
// behind a single connection's write path. A dead stripe is redialed
// single-flight on next use (with pool-wide jittered backoff while the
// peer stays down), so a restarted peer heals without intervention.
type Pool struct {
	addr  string
	conns []connSlot
	ctr   *Counters

	// DialTimeout bounds connection establishment (default 2s);
	// CallTimeout bounds each call (0 = none). DialCooldown caps the
	// fast-fail backoff after failed dials (default 1s): consecutive
	// failures grow a jittered exponential window (from ~DialCooldown/16
	// up to DialCooldown) during which calls needing a new connection
	// fail immediately instead of each paying DialTimeout against a
	// black-holing peer — a down shard costs one dial per window, not a
	// tight redial loop per caller.
	DialTimeout  time.Duration
	CallTimeout  time.Duration
	DialCooldown time.Duration

	failUntil atomic.Int64 // unix nanos; fast-fail until then
	dialFails atomic.Int64 // consecutive dial failures (backoff exponent)
	closed    atomic.Bool
}

// NewPool builds a pool of size connection stripes to addr (dialed
// lazily). size <= 0 picks the default: max(2, GOMAXPROCS).
func NewPool(addr string, size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
		if size < 2 {
			size = 2
		}
	}
	return &Pool{
		addr:         addr,
		conns:        make([]connSlot, size),
		DialTimeout:  2 * time.Second,
		DialCooldown: time.Second,
	}
}

// Addr returns the pool's target address.
func (p *Pool) Addr() string { return p.addr }

// Stripes returns the number of connection stripes.
func (p *Pool) Stripes() int { return len(p.conns) }

// UseCounters directs the pool's wire traffic totals into ctr. Set it
// before the first call — connections capture the counters when dialed.
func (p *Pool) UseCounters(ctr *Counters) { p.ctr = ctr }

// conn returns a live connection for stripe i, dialing if needed.
// Redials are single-flight per stripe; a failed dial arms the
// pool-wide backoff window, during which every caller fast-fails.
func (p *Pool) conn(i int) (*Conn, error) {
	sl := &p.conns[i]
	if c := sl.conn.Load(); c != nil && !c.Dead() {
		return c, nil
	}
	if time.Now().UnixNano() < p.failUntil.Load() {
		return nil, fmt.Errorf("netwire: dial %s: recently failed (cooling down)", p.addr)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClientClosed
	}
	if c := sl.conn.Load(); c != nil && !c.Dead() {
		return c, nil
	}
	// Re-check under the lock: callers queued behind a failing dial
	// should drain through the backoff, not dial again themselves.
	if time.Now().UnixNano() < p.failUntil.Load() {
		return nil, fmt.Errorf("netwire: dial %s: recently failed (cooling down)", p.addr)
	}
	nc, err := net.DialTimeout("tcp", p.addr, p.DialTimeout)
	if err != nil {
		p.backoff()
		return nil, fmt.Errorf("netwire: dial %s: %w", p.addr, err)
	}
	p.dialFails.Store(0)
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := NewConn(nc, p.ctr)
	sl.conn.Store(c)
	return c, nil
}

// backoff arms the pool-wide fast-fail window after a failed dial:
// exponential in the consecutive-failure count, capped at DialCooldown,
// and jittered ±50% so a fleet of callers redialing one recovered peer
// doesn't herd at it on a synchronized schedule.
func (p *Pool) backoff() {
	if p.DialCooldown <= 0 {
		return
	}
	fails := p.dialFails.Add(1)
	d := p.DialCooldown
	if s := 5 - int(fails); s > 0 {
		d >>= s // DialCooldown/16 on the first failure, doubling to the cap
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	d = d/2 + rand.N(d) // jitter over [d/2, 3d/2)
	p.failUntil.Store(time.Now().Add(d).UnixNano())
}

// Start begins one request on a randomly chosen stripe and returns the
// in-flight handle for Wait (the pool's CallTimeout is the caller's to
// apply there).
func (p *Pool) Start(op byte, req []byte) (*Pending, error) {
	if p.closed.Load() {
		return nil, ErrClientClosed
	}
	i := 0
	if n := len(p.conns); n > 1 {
		i = rand.IntN(n)
	}
	c, err := p.conn(i)
	if err != nil {
		return nil, err
	}
	return c.Start(op, req)
}

// Call issues one request on a randomly chosen stripe and blocks for
// its response. The response body lands in resp's backing array when
// it fits.
func (p *Pool) Call(op byte, req []byte, resp []byte) (byte, []byte, error) {
	pd, err := p.Start(op, req)
	if err != nil {
		return 0, nil, err
	}
	return pd.Wait(resp, p.CallTimeout)
}

// Close closes every connection; later calls fail with ErrClientClosed.
func (p *Pool) Close() error {
	p.closed.Store(true)
	for i := range p.conns {
		sl := &p.conns[i]
		sl.mu.Lock()
		if c := sl.conn.Swap(nil); c != nil {
			c.Close()
		}
		sl.mu.Unlock()
	}
	return nil
}
