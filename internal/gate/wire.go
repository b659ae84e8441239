package gate

import (
	"errors"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
)

// The gateway's binary protocol rides the same internal/netwire
// framing as the node protocol but in a disjoint opcode range, so a
// client pointed at the wrong port fails with a bad-request instead of
// silently half-working. Every request body begins with a
// length-prefixed bearer token — the netwire server is stateless per
// request, and per-request authentication is what the per-tenant
// quota needs anyway.
//
// Body layouts (all integers uvarint, all strings length-prefixed):
//
//	hello        req [token]                                  resp [n][transport name][hub seq]
//	post-batch   req [token][k] k×([port][node])              resp [k] k×[id]
//	deregister   req [token][id]                              resp (empty)
//	locate       req [token][client][port]                    resp entry
//	locate-batch req [token][client][k] k×[port]              resp [k] k×([st] entry?|msg?)
//	events       req [token][after][max]                      resp [seq][k] k×event
//	stats        req [token]                                  resp [passes][locates][errors][not-found][posts][shed]
//
//	entry = [port][addr][server id][time]
//	event = [seq][type][port][node][lo][hi][epoch][unix nanos]
//
// Non-OK statuses carry the error message as the raw body.

// Gate protocol opcodes (disjoint from the node protocol's 1..14).
const (
	// GopHello authenticates and returns cluster shape: node count,
	// backing transport name, and the watch hub's current sequence.
	GopHello byte = 0x21 + iota
	// 0x22 was GopRegister, a GopPostBatch of one with a layout of its
	// own. The number stays unused, so a client that still sends it is
	// refused (GsBadRequest) rather than served some other operation.
	_
	// GopDeregister tombstones a registration by gateway id.
	GopDeregister
	// GopLocate resolves one tenant-local port from a client node.
	GopLocate
	// GopLocateBatch resolves many ports from one client node in a
	// single round trip.
	GopLocateBatch
	// GopEvents polls the watch hub for tenant-scoped events after a
	// sequence number.
	GopEvents
	// GopStats returns the backing cluster's headline counters
	// (passes first — it serves the remote Transport.Passes).
	GopStats
	// GopPostBatch announces many servers in a single round trip, all or
	// nothing: one refused registration refuses the batch and leaves
	// nothing behind.
	GopPostBatch
)

// Gate protocol response statuses.
const (
	// GsOK is success.
	GsOK byte = iota
	// GsNotFound is a rendezvous miss (locate) or unknown registration
	// id (deregister).
	GsNotFound
	// GsDenied is an unknown bearer token.
	GsDenied
	// GsShed is a tenant-quota rejection — retry later, the answer
	// would not have been wrong, the tenant is over budget.
	GsShed
	// GsBadRequest is a malformed body or an unknown opcode.
	GsBadRequest
	// GsError is any other failure; the body holds the message.
	GsError
)

// WireHandler returns the netwire handler serving the gate binary
// protocol; pass it to netwire.NewServer on the gateway's wire
// listener.
func (g *Gateway) WireHandler() netwire.Handler {
	return func(op byte, req []byte, resp []byte) (byte, []byte) {
		d := netwire.NewDec(req)
		tok := d.String()
		if d.Err() != nil {
			return GsBadRequest, append(resp, "bad token field"...)
		}
		tn, err := g.auth(tok)
		if err != nil {
			return GsDenied, append(resp, "unknown token"...)
		}
		switch op {
		case GopHello:
			resp = netwire.AppendUvarint(resp, uint64(g.c.Transport().N()))
			resp = netwire.AppendString(resp, g.c.Transport().Name())
			resp = netwire.AppendUvarint(resp, g.hub.Seq())
			return GsOK, resp
		case GopPostBatch:
			k := d.Uvarint()
			// A record is at least two bytes, so k is bounded by the body.
			if d.Err() != nil || k == 0 || k > uint64(d.Len()) {
				return GsBadRequest, append(resp, "bad post-batch body"...)
			}
			regs := make([]cluster.Registration, k)
			for i := range regs {
				regs[i] = cluster.Registration{Port: core.Port(d.String()), Node: graph.NodeID(d.Uvarint())}
			}
			if d.Err() != nil {
				return GsBadRequest, append(resp, "bad post-batch body"...)
			}
			ids, err := g.postBatch(tn, regs)
			if err != nil {
				return wireErr(err, resp)
			}
			resp = netwire.AppendUvarint(resp, k)
			for _, id := range ids {
				resp = netwire.AppendUvarint(resp, id)
			}
			return GsOK, resp
		case GopDeregister:
			id := d.Uvarint()
			if d.Err() != nil {
				return GsBadRequest, append(resp, "bad deregister body"...)
			}
			if err := g.deregister(tn, id); err != nil {
				return wireErr(err, resp)
			}
			return GsOK, resp
		case GopLocate:
			client := d.Uvarint()
			port := d.String()
			if d.Err() != nil {
				return GsBadRequest, append(resp, "bad locate body"...)
			}
			e, err := g.locate(tn, graph.NodeID(client), core.Port(port))
			if err != nil {
				return wireErr(err, resp)
			}
			return GsOK, appendWireEntry(resp, e)
		case GopLocateBatch:
			client := d.Uvarint()
			k := d.Uvarint()
			// A port is at least one byte, so k is bounded by the body.
			if d.Err() != nil || k == 0 || k > uint64(d.Len()) {
				return GsBadRequest, append(resp, "bad locate-batch body"...)
			}
			reqs := make([]cluster.LocateReq, 0, k)
			for i := uint64(0); i < k; i++ {
				reqs = append(reqs, cluster.LocateReq{Client: graph.NodeID(client), Port: core.Port(d.String())})
			}
			if d.Err() != nil {
				return GsBadRequest, append(resp, "bad locate-batch body"...)
			}
			res := make([]cluster.LocateRes, len(reqs))
			if err := g.locateBatch(tn, reqs, res); err != nil {
				return wireErr(err, resp)
			}
			resp = netwire.AppendUvarint(resp, k)
			for _, rr := range res {
				switch {
				case rr.Err == nil:
					resp = append(resp, GsOK)
					resp = appendWireEntry(resp, rr.Entry)
				case errors.Is(rr.Err, core.ErrNotFound):
					resp = append(resp, GsNotFound)
				default:
					resp = append(resp, GsError)
					resp = netwire.AppendString(resp, rr.Err.Error())
				}
			}
			return GsOK, resp
		case GopEvents:
			after := d.Uvarint()
			max := d.Uvarint()
			if d.Err() != nil {
				return GsBadRequest, append(resp, "bad events body"...)
			}
			evs, seq := g.hub.EventsSince(tn.id, after, int(max))
			tn.m.watchEvents.Add(int64(len(evs)))
			resp = netwire.AppendUvarint(resp, seq)
			resp = netwire.AppendUvarint(resp, uint64(len(evs)))
			for _, we := range evs {
				resp = netwire.AppendUvarint(resp, we.Seq)
				resp = netwire.AppendString(resp, we.Type)
				resp = netwire.AppendString(resp, we.Port)
				resp = netwire.AppendUvarint(resp, uint64(we.Node))
				resp = netwire.AppendUvarint(resp, uint64(we.Lo))
				resp = netwire.AppendUvarint(resp, uint64(we.Hi))
				resp = netwire.AppendUvarint(resp, we.Epoch)
				resp = netwire.AppendUvarint(resp, uint64(we.UnixNanos))
			}
			return GsOK, resp
		case GopStats:
			s := g.c.Metrics()
			resp = netwire.AppendUvarint(resp, uint64(s.Passes))
			resp = netwire.AppendUvarint(resp, uint64(s.Locates))
			resp = netwire.AppendUvarint(resp, uint64(s.Errors))
			resp = netwire.AppendUvarint(resp, uint64(s.NotFound))
			resp = netwire.AppendUvarint(resp, uint64(s.Posts))
			resp = netwire.AppendUvarint(resp, uint64(s.Shed))
			return GsOK, resp
		default:
			return GsBadRequest, append(resp, "unknown gate opcode"...)
		}
	}
}

// wireErr maps a gateway error onto (status, body).
func wireErr(err error, resp []byte) (byte, []byte) {
	switch {
	case errors.Is(err, core.ErrNotFound), errors.Is(err, ErrUnknownReg):
		return GsNotFound, resp
	case errors.Is(err, ErrShed):
		return GsShed, resp
	case errors.Is(err, ErrDenied):
		return GsDenied, resp
	default:
		return GsError, append(resp, err.Error()...)
	}
}

// appendWireEntry encodes a located entry (tenant-local port already
// restored).
func appendWireEntry(b []byte, e core.Entry) []byte {
	b = netwire.AppendString(b, string(e.Port))
	b = netwire.AppendUvarint(b, uint64(e.Addr))
	b = netwire.AppendUvarint(b, e.ServerID)
	b = netwire.AppendUvarint(b, e.Time)
	return b
}

// decodeWireEntry decodes appendWireEntry's form.
func decodeWireEntry(d *netwire.Dec) core.Entry {
	return core.Entry{
		Port:     core.Port(d.String()),
		Addr:     graph.NodeID(d.Uvarint()),
		ServerID: d.Uvarint(),
		Time:     d.Uvarint(),
		Active:   true,
	}
}
