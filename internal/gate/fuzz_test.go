package gate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"matchmake/internal/cluster"
	"matchmake/internal/core"
	"matchmake/internal/graph"
	"matchmake/internal/netwire"
	"matchmake/internal/rendezvous"
	"matchmake/internal/topology"
)

// The gateway is the one surface that reads bytes a tenant controls —
// the JSON bodies of the HTTP API and the netwire frames of the binary
// protocol. Both fuzz targets below hold the same line FuzzWireDecode
// holds for the node protocol: malformed input must come back as an
// error status, never a panic, and never as a success that leaks
// another tenant's state.

// fuzzGateway builds a minimal single-tenant gateway over a mem
// cluster with one posted service, shared by every fuzz iteration.
func fuzzGateway(f *testing.F) *Gateway {
	f.Helper()
	tr, err := cluster.NewMemTransport(topology.Complete(16), rendezvous.Checkerboard(16), 0)
	if err != nil {
		f.Fatal(err)
	}
	c := cluster.New(tr, cluster.Options{})
	gw, err := New(c, NewHub(0), DevTenant("tok"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := gw.register(gw.byToken["tok"], core.Port("printer"), graph.NodeID(3)); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		gw.Close()
		c.Close()
	})
	return gw
}

// FuzzGateWire drives arbitrary (opcode, body) pairs through the gate
// binary protocol handler. Whatever the bytes, the handler must return
// one of the defined statuses — a malformed body is GsBadRequest (or
// GsDenied when the token field fails auth), never a panic and never
// GsOK for input that failed to decode.
func FuzzGateWire(f *testing.F) {
	gw := fuzzGateway(f)
	handler := gw.WireHandler()

	tok := netwire.AppendString(nil, "tok")
	f.Add(GopHello, append([]byte(nil), tok...))
	// The retired single-register opcode, with the body an old client
	// would send: refused, not served as whatever sits there now.
	const retiredRegister = GopHello + 1
	reg := netwire.AppendString(tok, "scanner")
	reg = netwire.AppendUvarint(reg, 5)
	f.Add(retiredRegister, reg)
	loc := netwire.AppendUvarint(append([]byte(nil), tok...), 7)
	loc = netwire.AppendString(loc, "printer")
	f.Add(GopLocate, loc)
	batch := netwire.AppendUvarint(append([]byte(nil), tok...), 7)
	batch = netwire.AppendUvarint(batch, 2)
	batch = netwire.AppendString(batch, "printer")
	batch = netwire.AppendString(batch, "missing")
	f.Add(GopLocateBatch, batch)
	// A token-length prefix pointing past the buffer.
	f.Add(GopHello, netwire.AppendUvarint(nil, 1<<40))
	// A huge locate-batch count with no ports behind it.
	f.Add(GopLocateBatch, netwire.AppendUvarint(append([]byte(nil), tok...), 1<<30))
	// Post-batch: a well-formed pair, then the ways its count can lie —
	// no count at all, k = 0, k past the records behind it, a k no body
	// could hold — and an invalid (empty) port in the middle of the batch.
	postBatch := func(k uint64, regs ...any) []byte {
		b := netwire.AppendUvarint(append([]byte(nil), tok...), k)
		for i := 0; i < len(regs); i += 2 {
			b = netwire.AppendUvarint(netwire.AppendString(b, regs[i].(string)), uint64(regs[i+1].(int)))
		}
		return b
	}
	f.Add(GopPostBatch, postBatch(2, "scanner", 5, "plotter", 9))
	f.Add(GopPostBatch, append([]byte(nil), tok...))
	f.Add(GopPostBatch, postBatch(0))
	f.Add(GopPostBatch, postBatch(3, "scanner", 5))
	f.Add(GopPostBatch, postBatch(1<<30, "scanner", 5))
	f.Add(GopPostBatch, postBatch(3, "scanner", 5, "", 6, "plotter", 9))
	f.Add(byte(0), []byte{})
	f.Add(GopStats, []byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		st, resp := handler(op, body, nil)
		switch st {
		case GsOK, GsNotFound, GsDenied, GsShed, GsBadRequest, GsError:
		default:
			t.Fatalf("op %#x: undefined status %d", op, st)
		}
		if op == retiredRegister && st != GsBadRequest && st != GsDenied {
			t.Fatalf("retired opcode %#x answered status %d, want a refusal", op, st)
		}
		if st != GsOK {
			return
		}
		// A GsOK answer implies the request decoded — which requires at
		// least an intact token field naming the one real tenant.
		d := netwire.NewDec(body)
		if tok := d.String(); d.Err() != nil || tok != "tok" {
			t.Fatalf("op %#x: GsOK for body without a valid token (resp %d bytes)", op, len(resp))
		}
	})
}

// FuzzGateHTTP drives arbitrary bodies at the authenticated JSON
// endpoints. Every response must carry a defined status code; a body
// the decoder rejects must answer 400, not panic — the gateway's JSON
// surface is reachable by any tenant process, however broken.
func FuzzGateHTTP(f *testing.F) {
	gw := fuzzGateway(f)
	handler := gw.HTTPHandler()
	paths := []string{"/v1/register", "/v1/deregister", "/v1/locate", "/v1/locate-batch"}

	f.Add(uint8(0), `{"port":"scanner","node":4}`)
	f.Add(uint8(1), `{"id":1}`)
	f.Add(uint8(2), `{"port":"printer","client":7}`)
	f.Add(uint8(3), `{"client":7,"ports":["printer","missing"]}`)
	f.Add(uint8(2), `{"port":"printer","client":7,"typo":true}`)
	f.Add(uint8(3), `{"client":7,"ports":[]}`)
	f.Add(uint8(0), `{"port":`)
	f.Add(uint8(1), `[]`)
	f.Add(uint8(2), "\x00\xff not json")
	f.Add(uint8(3), `{"client":-9999999999,"ports":["x"]}`)

	f.Fuzz(func(t *testing.T, which uint8, body string) {
		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
		req.Header.Set("Authorization", "Bearer tok")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnauthorized,
			http.StatusNotFound, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST %s with %q: undefined status %d", path, body, rec.Code)
		}
		// Every response body — success or error — is well-formed JSON.
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("POST %s: status %d with non-JSON body %q", path, rec.Code, rec.Body.String())
		}
	})
}
