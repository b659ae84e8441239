package matchmake

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestReferenceEngineHasNoClock is the clock lint: no non-test file of
// internal/sim, and neither of the files that drive a simulated network
// — internal/cluster/simtransport.go (the substrate under the cluster's
// coordinator) and internal/service/service.go (the service layer's
// request network) — may import "time". The paper's cost
// model is message passes and its §1.5 misses are silent; the reference
// engine learns that a request is over by counting the request's own
// messages (sim.Handler documents the rule), so its answers and charges
// are a function of the history alone. A timeout or a collect window
// here would make the column every sim = mem = net suite is judged
// against depend on the scheduler again — and put the sleeping back into
// tier-1. The files that drive a network may not send through its
// fire-and-forget Send or Multicast either, nor wait on Drain: such a
// message belongs to no request, so a reply sent that way races the
// locate it answers.
func TestReferenceEngineHasNoClock(t *testing.T) {
	drivers := []string{"internal/cluster/simtransport.go", "internal/service/service.go"}
	for _, f := range append(nonTestGoFiles(t, "internal/sim"), drivers...) {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time: the reference engine has no clock — end a wait by counting the request's messages (sim.Network.Flood/Call), not by a duration", f)
			}
		}
	}
	for _, f := range drivers {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"net.Send(", "net.Multicast(", "net.Drain("} {
			if strings.Contains(string(body), call) {
				t.Errorf("%s calls %s…): that message is outside every request's count — a handler sends through the message it is handling (msg.Send, msg.Reply), an originator through Flood or Call", f, call)
			}
		}
	}
}
