package main

import "testing"

// TestDaemonQueueDepth pins the daemon's admission default: -queue-depth 0
// bounds the waiting room at 4× the in-flight bound, and explicit values,
// including negative "no waiting room", pass through unchanged.
func TestDaemonQueueDepth(t *testing.T) {
	cases := []struct{ flag, inflight, want int }{
		{0, 2, 8},
		{0, 0, 0},
		{5, 2, 5},
		{-1, 2, -1},
	}
	for _, c := range cases {
		if got := daemonQueueDepth(c.flag, c.inflight); got != c.want {
			t.Errorf("daemonQueueDepth(%d, %d) = %d, want %d", c.flag, c.inflight, got, c.want)
		}
	}
}
