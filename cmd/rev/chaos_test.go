package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestChaosSmoke(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"chaos", "-seeds", "5", "-days", "4", "-tail", "2", "-certs", "8"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"determinism", "convergence", "stale-good", "ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FAIL") {
		t.Errorf("invariant failure reported:\n%s", s)
	}
	// The engine adds a tail-latency line after the table; the table
	// itself keeps its pre-engine shape (header first, latency line last).
	if !strings.HasPrefix(s, "seed ") {
		t.Errorf("table header no longer first:\n%s", s)
	}
	if !strings.Contains(s, "browser eval latency: p50 ") {
		t.Errorf("latency tail line missing:\n%s", s)
	}
}

func TestChaosBadSeed(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"chaos", "-seeds", "pumpkin"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d for malformed seed, want 2", code)
	}
}
