package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScanTinyScale(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"scan", "-scale", "0.0003", "-seed", "5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"scans ingested:        74",
		"crawl days:            181",
		"certificates observed:",
		"final fresh-revoked:",
		"CRLSet entries:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestScanBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"scan", "-scale", "banana"}, &out, &errOut); code != 1 {
		t.Errorf("bad flag: exit = %d", code)
	}
}

// TestScanDisk: a world on disk prints what the same world in memory
// prints, and leaves one world under -disk holding a segdb store and
// nothing else.
func TestScanDisk(t *testing.T) {
	args := []string{"scan", "-scale", "0.0003", "-seed", "5"}
	var mem, disk, errOut bytes.Buffer
	if code := run(args, &mem, &errOut); code != 0 {
		t.Fatalf("in memory: exit = %d\nstderr: %s", code, errOut.String())
	}
	dir := t.TempDir()
	if code := run(append(args, "-disk", dir), &disk, &errOut); code != 0 {
		t.Fatalf("on disk: exit = %d\nstderr: %s", code, errOut.String())
	}
	if mem.String() != disk.String() {
		t.Errorf("-disk changed the output:\nmemory:\n%s\ndisk:\n%s", mem.String(), disk.String())
	}
	worlds, _ := filepath.Glob(filepath.Join(dir, "world-*"))
	if len(worlds) != 1 {
		t.Fatalf("-disk holds %d worlds, want 1", len(worlds))
	}
	wals, _ := filepath.Glob(filepath.Join(worlds[0], "revdb", "wal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(worlds[0], "revdb", "snap-*.seg"))
	if len(wals)+len(snaps) == 0 {
		t.Error("no segdb WAL or snapshot under -disk")
	}
	if entries, err := os.ReadDir(worlds[0]); err != nil || len(entries) != 1 || entries[0].Name() != "revdb" {
		t.Errorf("world directory holds %v (%v), want revdb alone", entries, err)
	}
}
