package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExpTinyScaleSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"exp", "-scale", "0.0003", "-seed", "2", "-only", "fig11,ext-shortlived,sec3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	for _, want := range []string{"fig11", "ext-shortlived", "sec3"} {
		if !strings.Contains(out.String(), "== "+want) {
			t.Errorf("missing experiment %s", want)
		}
	}
	if strings.Contains(out.String(), "== fig2") {
		t.Error("filter leaked other experiments")
	}
}

func TestExpBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"exp", "-scale", "x"}, &out, &errOut); code != 1 {
		t.Errorf("bad flag: exit = %d", code)
	}
	errOut.Reset()
	if code := run([]string{"exp", "-scale", "0.0003", "-only", "fig1,nosuch"}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), "nosuch") || out.Len() != 0 {
		t.Errorf("unknown -only ID: exit = %d, stdout %d bytes, stderr: %s", code, out.Len(), errOut.String())
	}
}

func TestExpWritesDatFiles(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"exp", "-scale", "0.0003", "-seed", "2", "-only", "fig11", "-outdir", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig11.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# n_revocations") {
		t.Errorf("dat header missing:\n%s", data[:80])
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) != 11 {
		t.Errorf("dat rows wrong:\n%s", data)
	}
}
