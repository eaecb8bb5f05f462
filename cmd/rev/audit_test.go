package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/host"
	"repro/internal/x509x"
)

// liveFixture stands up a complete PKI on real sockets: a CA whose CRL and
// OCSP endpoints listen on 127.0.0.1, and a TLS server presenting a chain.
type liveFixture struct {
	authority *ca.CA
	rec       *ca.Record
	tlsSrv    *host.LiveServer
	distSrv   *http.Server
	distAddr  string
	rootsPEM  string
}

func newLiveFixture(t *testing.T) *liveFixture {
	t.Helper()
	// Distribution listener first: its address goes into the CA config.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	authority, err := ca.NewRoot(ca.Config{
		Name:         "LiveAudit CA",
		CRLBaseURL:   base + "/crl",
		OCSPBaseURL:  base + "/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	distSrv := &http.Server{Handler: authority.Handler()}
	go distSrv.Serve(ln)
	t.Cleanup(func() { distSrv.Close() })

	leafKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, rec, err := authority.Issue(ca.IssueOptions{
		CommonName: "cmdtest.example",
		NotBefore:  time.Now().Add(-time.Hour),
		NotAfter:   time.Now().AddDate(1, 0, 0),
		PublicKey:  &leafKey.PublicKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	tlsSrv, err := host.NewLiveServer(host.LiveConfig{
		Chain: [][]byte{cert.Raw, authority.Certificate().Raw},
		Key:   leafKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tlsSrv.Close() })

	rootsPEM := filepath.Join(t.TempDir(), "roots.pem")
	if err := os.WriteFile(rootsPEM, x509x.EncodePEM(authority.Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	return &liveFixture{
		authority: authority, rec: rec, tlsSrv: tlsSrv,
		distSrv: distSrv, distAddr: ln.Addr().String(), rootsPEM: rootsPEM,
	}
}

func TestAuditGoodEndpoint(t *testing.T) {
	f := newLiveFixture(t)
	var out, errOut bytes.Buffer
	code := run([]string{"audit", "-roots", f.rootsPEM, f.tlsSrv.Addr()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "verdict: good") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "chain valid: true") {
		t.Error("chain validation missing from output")
	}
}

func TestAuditRevokedEndpoint(t *testing.T) {
	f := newLiveFixture(t)
	if err := f.authority.Revoke(f.rec.Serial, time.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"audit", f.tlsSrv.Addr()}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (revoked)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "keyCompromise") {
		t.Errorf("reason missing:\n%s", out.String())
	}
}

func TestAuditUnavailableInfrastructure(t *testing.T) {
	f := newLiveFixture(t)
	f.distSrv.Close() // revocation endpoints go dark
	var out, errOut bytes.Buffer
	code := run([]string{"audit", "-timeout", "2s", f.tlsSrv.Addr()}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (incomplete)\n%s", code, out.String())
	}
}

func TestAuditUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"audit"}, &out, &errOut); code != 1 {
		t.Errorf("no args: exit = %d", code)
	}
	if code := run([]string{"audit", "-roots", "/nonexistent.pem", "localhost:1"}, &out, &errOut); code != 1 {
		t.Errorf("missing roots file: exit = %d", code)
	}
	if code := run([]string{"audit", fmt.Sprintf("127.0.0.1:%d", 1)}, &out, &errOut); code != 1 {
		t.Errorf("refused connection: exit = %d", code)
	}
}
