package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSuiteMatrix(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"suite"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, errOut.String())
	}
	for _, want := range []string{"Firefox 40", "OCSP leaf revoked", "Respect revoked staple", "legend:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSuiteSingleProfile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"suite", "-profile", "iOS 6-8"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	// Every line of a mobile profile's report is an accept.
	if strings.Contains(out.String(), "reject") {
		t.Error("iOS profile rejected something")
	}
	if !strings.Contains(out.String(), "accept") {
		t.Error("no outcomes printed")
	}
}

func TestSuiteUnknownProfile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"suite", "-profile", "Netscape 4"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "available:") {
		t.Error("profile listing missing")
	}
}
