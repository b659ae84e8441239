package matchmake

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestReferenceEngineHasNoClock is the clock lint: no non-test file of
// internal/sim or internal/core may import "time". The paper's cost
// model is message passes and its §1.5 misses are silent; the reference
// engine learns that a request is over by counting the request's own
// messages (sim.Handler documents the rule), so its answers and charges
// are a function of the history alone. A timeout or a collect window
// here would make the column every sim = mem = net suite is judged
// against depend on the scheduler again — and put the sleeping back into
// tier-1. The same files may not send through the network's
// fire-and-forget Send or Multicast either: such a message belongs to no
// request, so a reply sent that way races the locate it answers.
func TestReferenceEngineHasNoClock(t *testing.T) {
	for _, f := range append(nonTestGoFiles(t, "internal/sim"), nonTestGoFiles(t, "internal/core")...) {
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
	for _, f := range nonTestGoFiles(t, "internal/core") {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []string{"net.Send(", "net.Multicast("} {
			if strings.Contains(string(body), call) {
				t.Errorf("%s calls %s…): that message is outside every request's count — a handler sends through the message it is handling (msg.Send, msg.Reply), an originator through Flood or Call", f, call)
			}
		}
	}
}
