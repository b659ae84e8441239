package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadCluster checks the cluster flags mmgate shares with
// mmload are refused by the same validator with the same messages, and
// that the gateway's own mem-or-net rule still holds.
func TestRunRejectsBadCluster(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replicas", "0"}, "-replicas must be ≥ 1, got 0"},
		{[]string{"-nodes", "1"}, "need at least 2 nodes"},
		{[]string{"-transport", "sim"}, `unknown transport "sim" (mmgate fronts mem or net)`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestRunServesAndDrains boots the gateway over a replicated, hinted
// mem cluster and drains it on the stop channel.
func TestRunServesAndDrains(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var out bytes.Buffer
	if err := run([]string{"-nodes", "16", "-replicas", "2", "-hints"}, &out, stop); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"HTTP 127.0.0.1:", "WIRE 127.0.0.1:", "transport=mem-r2 nodes=16", "mmgate: drained"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}
