package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/x509x"
)

// writeFixture materializes a CA, a set of DER CRL files, and the issuer
// PEM on disk, returning the directory and issuer path.
func writeFixture(t *testing.T, revokedPerShard []int) (dir, issuerPath string, authority *ca.CA) {
	t.Helper()
	dir = t.TempDir()
	authority, err := ca.NewRoot(ca.Config{
		Name:         "CmdGen CA",
		NumCRLShards: len(revokedPerShard),
		CRLBaseURL:   "http://crl.cmdgen.test/crl",
		IncludeCRLDP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for shard, n := range revokedPerShard {
		// Issue until round-robin hands us the right shard, then revoke.
		revoked := 0
		for revoked < n {
			rec := authority.IssueRecord(ca.IssueOptions{
				CommonName: "f.test",
				NotBefore:  time.Now().Add(-time.Hour),
				NotAfter:   time.Now().AddDate(1, 0, 0),
			})
			if rec.Shard != shard {
				continue
			}
			if err := authority.Revoke(rec.Serial, time.Now(), crl.ReasonKeyCompromise); err != nil {
				t.Fatal(err)
			}
			revoked++
		}
		raw, err := authority.CRLBytes(shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.crl", shard)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	issuerPath = filepath.Join(dir, "issuer.pem")
	if err := os.WriteFile(issuerPath, certPEM(authority.Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, issuerPath, authority
}

// certPEM renders a certificate as a CERTIFICATE PEM block.
func certPEM(c *x509x.Certificate) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Raw})
}

func TestCRLSetGeneratesCRLSet(t *testing.T) {
	dir, issuerPath, _ := writeFixture(t, []int{5, 3})
	outPath := filepath.Join(dir, "crlset.bin")
	var out, errOut bytes.Buffer
	code := run([]string{"crlset", "-crls", dir, "-issuer", issuerPath, "-out", outPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "CRLs parsed:        2 (8 revocations)") {
		t.Errorf("output:\n%s", out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chrome's layout: a uint16 LE header length, a JSON header, then the
	// parent's 32-byte SPKI hash and its uint32 LE serial count.
	if len(data) < 2 {
		t.Fatalf("written CRLSet is %d bytes", len(data))
	}
	headerLen := int(binary.LittleEndian.Uint16(data))
	var header struct {
		ContentType string
		NumParents  int
	}
	if len(data) < 2+headerLen+36 || json.Unmarshal(data[2:2+headerLen], &header) != nil || header.ContentType != "CRLSet" {
		t.Fatalf("written CRLSet has no CRLSet header: %q", data)
	}
	if header.NumParents != 1 {
		t.Errorf("header lists %d parents, want 1", header.NumParents)
	}
	if n := binary.LittleEndian.Uint32(data[2+headerLen+32:]); n != 8 {
		t.Errorf("first parent lists %d serials, want 8", n)
	}
}

func TestCRLSetDropsOversizedCRL(t *testing.T) {
	dir, issuerPath, _ := writeFixture(t, []int{12, 2})
	var out, errOut bytes.Buffer
	code := run([]string{"crlset", "-crls", dir, "-issuer", issuerPath, "-maxentries", "5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut.String())
	}
	// Only the 2-entry CRL survives the oversized-CRL rule.
	if !strings.Contains(out.String(), "CRLSet:             2 entries") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCRLSetSkipsForeignCRLs(t *testing.T) {
	dir, _, _ := writeFixture(t, []int{4})
	// A second CA's PEM: the CRL signature check must skip the file.
	other, err := ca.NewRoot(ca.Config{Name: "Other CA"})
	if err != nil {
		t.Fatal(err)
	}
	otherPEM := filepath.Join(dir, "other.pem")
	if err := os.WriteFile(otherPEM, certPEM(other.Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"crlset", "-crls", dir, "-issuer", otherPEM}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut.String(), "skipping") {
		t.Errorf("expected skip warning, stderr: %s", errOut.String())
	}
	if !strings.Contains(out.String(), "CRLs parsed:        0") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestCRLSetUsageAndErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"crlset"}, &out, &errOut); code != 1 {
		t.Errorf("missing flags: exit = %d", code)
	}
	dir := t.TempDir()
	if code := run([]string{"crlset", "-crls", dir, "-issuer", filepath.Join(dir, "missing.pem")}, &out, &errOut); code != 1 {
		t.Errorf("missing issuer: exit = %d", code)
	}
}
