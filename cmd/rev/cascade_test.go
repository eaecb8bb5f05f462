package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestCascadeVerify(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"cascade", "-scale", "0.0003", "-seed", "5", "-verify", "-cascadedir", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	for _, want := range []string{"verify: chain ok, catch-up ok", " 0 FP / 0 FN", "wrote 183 artifacts"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
	// Two snapshots, one delta per crawl day after the first, one
	// catch-up delta.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 183 {
		t.Errorf("wrote %d artifacts, want 183", len(files))
	}
}
