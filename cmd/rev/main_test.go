package main

import (
	"bytes"
	"testing"
)

func TestUsageNamesEverySubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuch"}, {"-scale", "0.01"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("rev %q: exit = %d, want 1", args, code)
		}
		for _, name := range []string{"scan", "exp", "cascade", "crlset", "audit", "suite", "chaos"} {
			if !bytes.Contains(errOut.Bytes(), []byte("  "+name+" ")) {
				t.Errorf("rev %q: usage does not name %s:\n%s", args, name, errOut.String())
			}
		}
	}
}
