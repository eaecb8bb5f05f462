package core

import (
	"math/big"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/chain"
	"repro/internal/crl"
	"repro/internal/host"
	"repro/internal/ocsp"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// auditWorld wires a root+intermediate hierarchy onto a simnet fabric and
// also runs a real TLS server for the live path.
type auditWorld struct {
	t     *testing.T
	clock *simtime.Clock
	net   *simnet.Network
	root  *ca.CA
	inter *ca.CA
}

func newAuditWorld(t *testing.T) *auditWorld {
	t.Helper()
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	net := simnet.New()
	root, err := ca.NewRoot(ca.Config{
		Name: "AuditRoot", CRLBaseURL: "http://crl.aroot.test/crl", OCSPBaseURL: "http://ocsp.aroot.test/ocsp",
		IncludeCRLDP: true, IncludeOCSP: true, Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := ca.NewIntermediate(ca.Config{
		Name: "AuditInter", CRLBaseURL: "http://crl.ainter.test/crl", OCSPBaseURL: "http://ocsp.ainter.test/ocsp",
		IncludeCRLDP: true, IncludeOCSP: true, Clock: clock.Now,
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	net.Register("crl.aroot.test", root.Handler())
	net.Register("ocsp.aroot.test", root.Handler())
	net.Register("crl.ainter.test", inter.Handler())
	net.Register("ocsp.ainter.test", inter.Handler())
	return &auditWorld{t: t, clock: clock, net: net, root: root, inter: inter}
}

func (w *auditWorld) issue(ev bool) (*x509x.Certificate, *ca.Record) {
	w.t.Helper()
	cert, rec, err := w.inter.Issue(ca.IssueOptions{
		CommonName: "audit.site.test",
		NotBefore:  w.clock.Now().AddDate(0, -1, 0),
		NotAfter:   w.clock.Now().AddDate(1, 0, 0),
		EV:         ev,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return cert, rec
}

func (w *auditWorld) auditor() *Auditor {
	return &Auditor{
		Roots: chain.NewPool(w.root.Certificate()),
		HTTP:  w.net.Client(),
		Now:   w.clock.Now,
	}
}

func (w *auditWorld) chainFor(leaf *x509x.Certificate) []*x509x.Certificate {
	return []*x509x.Certificate{leaf, w.inter.Certificate(), w.root.Certificate()}
}

func TestAuditGoodChain(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(false)
	report, err := w.auditor().AuditChain("good.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.ChainValid {
		t.Error("chain should validate")
	}
	if report.Verdict() != "good" {
		t.Errorf("verdict = %s\n%s", report.Verdict(), report.Render())
	}
	if len(report.Certs) != 3 {
		t.Fatalf("audited %d certs", len(report.Certs))
	}
	leafAudit := report.Certs[0]
	if leafAudit.CRL.Status != StatusGood || leafAudit.OCSP.Status != StatusGood {
		t.Errorf("leaf mechanisms: crl=%s ocsp=%s", leafAudit.CRL.Status, leafAudit.OCSP.Status)
	}
	if leafAudit.CRL.Bytes == 0 {
		t.Error("CRL bytes not accounted")
	}
	// The root is self-signed and must not be checked.
	rootAudit := report.Certs[2]
	if !rootAudit.SelfSigned || rootAudit.CRL.Status != StatusNoPointer {
		t.Errorf("root audit: %+v", rootAudit)
	}
	if report.TotalBytes == 0 {
		t.Error("no bandwidth accounted")
	}
}

func TestAuditRevokedLeaf(t *testing.T) {
	w := newAuditWorld(t)
	leaf, rec := w.issue(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	report, err := w.auditor().AuditChain("revoked.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict() != "revoked" {
		t.Errorf("verdict = %s", report.Verdict())
	}
	leafAudit := report.Certs[0]
	if leafAudit.CRL.Status != StatusRevoked || leafAudit.OCSP.Status != StatusRevoked {
		t.Errorf("mechanisms: crl=%s ocsp=%s", leafAudit.CRL.Status, leafAudit.OCSP.Status)
	}
	if !strings.Contains(leafAudit.CRL.Detail, "keyCompromise") {
		t.Errorf("detail = %q", leafAudit.CRL.Detail)
	}
	if !report.Certs[0].Revoked() {
		t.Error("Revoked() accessor")
	}
}

func TestAuditRevokedIntermediate(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(false)
	if err := w.root.Revoke(w.inter.Certificate().SerialNumber, w.clock.Now(), crl.ReasonCACompromise); err != nil {
		t.Fatal(err)
	}
	report, err := w.auditor().AuditChain("badca.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict() != "revoked" {
		t.Errorf("verdict = %s", report.Verdict())
	}
	if !report.Certs[1].Revoked() {
		t.Error("intermediate revocation missed")
	}
}

func TestAuditUnavailableInfrastructure(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(false)
	w.net.SetFailure("crl.ainter.test", simnet.FailUnresponsive)
	w.net.SetFailure("ocsp.ainter.test", simnet.FailUnresponsive)
	report, err := w.auditor().AuditChain("dark.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict() != "incomplete" {
		t.Errorf("verdict = %s", report.Verdict())
	}
	leafAudit := report.Certs[0]
	if leafAudit.CRL.Status != StatusUnavailable || leafAudit.OCSP.Status != StatusUnavailable {
		t.Errorf("mechanisms: %s/%s", leafAudit.CRL.Status, leafAudit.OCSP.Status)
	}
}

// TestAuditTimeoutBoundsFetches: responders that accept a request and
// then never answer cost the audit its Timeout per fetch, not forever,
// and leave the leaf's mechanisms unavailable.
func TestAuditTimeoutBoundsFetches(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(false)
	silent := http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	w.net.Register("crl.ainter.test", silent)
	w.net.Register("ocsp.ainter.test", silent)
	auditor := w.auditor()
	auditor.Timeout = 100 * time.Millisecond
	done := make(chan *Report, 1)
	go func() {
		report, err := auditor.AuditChain("silent.test", w.chainFor(leaf), nil)
		if err != nil {
			t.Error(err)
		}
		done <- report
	}()
	select {
	case report := <-done:
		if report == nil {
			return
		}
		leafAudit := report.Certs[0]
		if leafAudit.CRL.Status != StatusUnavailable || leafAudit.OCSP.Status != StatusUnavailable {
			t.Errorf("mechanisms: %s/%s", leafAudit.CRL.Status, leafAudit.OCSP.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("audit still waiting on silent responders after 10s")
	}
}

func TestAuditUntrustedChain(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(false)
	other, err := ca.NewRoot(ca.Config{Name: "OtherRoot", Clock: w.clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	auditor := w.auditor()
	auditor.Roots = chain.NewPool(other.Certificate())
	report, err := auditor.AuditChain("untrusted.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.ChainValid {
		t.Error("chain should not validate against a foreign root")
	}
}

func TestAuditStaple(t *testing.T) {
	w := newAuditWorld(t)
	leaf, rec := w.issue(false)
	signer, key := w.inter.Signer()
	staple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID: ocsp.NewCertID(signer, rec.Serial), Status: ocsp.StatusGood,
			ThisUpdate: w.clock.Now(), NextUpdate: w.clock.Now().Add(96 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	report, err := w.auditor().AuditChain("stapled.test", w.chainFor(leaf), staple)
	if err != nil {
		t.Fatal(err)
	}
	if !report.StaplePresented || report.Certs[0].Staple.Status != StatusGood {
		t.Errorf("staple audit: presented=%t status=%s", report.StaplePresented, report.Certs[0].Staple.Status)
	}
}

func TestAuditLiveEndToEnd(t *testing.T) {
	// Full path over a real socket: live TLS server with staple,
	// auditor dials, grabs, validates, checks revocation over the
	// simnet fabric.
	w := newAuditWorld(t)
	leafKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, rec, err := w.inter.Issue(ca.IssueOptions{
		CommonName: "live.audit.test",
		NotBefore:  w.clock.Now().AddDate(0, -1, 0),
		NotAfter:   w.clock.Now().AddDate(1, 0, 0),
		PublicKey:  &leafKey.PublicKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	signer, key := w.inter.Signer()
	staple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID: ocsp.NewCertID(signer, rec.Serial), Status: ocsp.StatusGood,
			ThisUpdate: w.clock.Now(), NextUpdate: w.clock.Now().Add(96 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := host.NewLiveServer(host.LiveConfig{
		Chain:  [][]byte{cert.Raw, w.inter.Certificate().Raw, w.root.Certificate().Raw},
		Key:    leafKey,
		Staple: staple,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	report, err := w.auditor().Audit(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict() != "good" {
		t.Errorf("verdict = %s\n%s", report.Verdict(), report.Render())
	}
	if !report.StaplePresented {
		t.Error("staple lost on the live path")
	}
	out := report.Render()
	if !strings.Contains(out, "live.audit.test") && !strings.Contains(out, "audit of") {
		t.Errorf("render: %s", out)
	}
}

func TestAuditEmptyChain(t *testing.T) {
	w := newAuditWorld(t)
	if _, err := w.auditor().AuditChain("empty.test", nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestAuditDialFailure(t *testing.T) {
	w := newAuditWorld(t)
	auditor := w.auditor()
	auditor.Timeout = 300 * time.Millisecond
	if _, err := auditor.Audit("127.0.0.1:1"); err == nil {
		t.Error("audit of closed port should fail")
	}
}

func TestAuditStapleEdgeCases(t *testing.T) {
	w := newAuditWorld(t)
	leaf, rec := w.issue(false)
	signer, key := w.inter.Signer()

	// Staple with unknown status.
	unknownStaple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID: ocsp.NewCertID(signer, rec.Serial), Status: ocsp.StatusUnknown,
			ThisUpdate: w.clock.Now(), NextUpdate: w.clock.Now().Add(time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	report, err := w.auditor().AuditChain("unknown-staple.test", w.chainFor(leaf), unknownStaple)
	if err != nil {
		t.Fatal(err)
	}
	if report.Certs[0].Staple.Status != StatusUnknown {
		t.Errorf("staple status = %s", report.Certs[0].Staple.Status)
	}

	// Staple covering the wrong serial.
	wrongStaple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID: ocsp.NewCertID(signer, big.NewInt(999999)), Status: ocsp.StatusGood,
			ThisUpdate: w.clock.Now(),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	report, err = w.auditor().AuditChain("wrong-staple.test", w.chainFor(leaf), wrongStaple)
	if err != nil {
		t.Fatal(err)
	}
	if report.Certs[0].Staple.Status != StatusUnavailable {
		t.Errorf("mismatched staple status = %s", report.Certs[0].Staple.Status)
	}

	// Expired staple.
	staleStaple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now().Add(-10 * 24 * time.Hour),
		Responses: []ocsp.SingleResponse{{
			ID: ocsp.NewCertID(signer, rec.Serial), Status: ocsp.StatusGood,
			ThisUpdate: w.clock.Now().Add(-10 * 24 * time.Hour),
			NextUpdate: w.clock.Now().Add(-9 * 24 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	report, err = w.auditor().AuditChain("stale-staple.test", w.chainFor(leaf), staleStaple)
	if err != nil {
		t.Fatal(err)
	}
	if report.Certs[0].Staple.Status != StatusUnavailable {
		t.Errorf("stale staple status = %s", report.Certs[0].Staple.Status)
	}
	// Garbage staple bytes.
	report, err = w.auditor().AuditChain("garbage-staple.test", w.chainFor(leaf), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.Certs[0].Staple.Status != StatusUnavailable {
		t.Errorf("garbage staple status = %s", report.Certs[0].Staple.Status)
	}
}

func TestCertAuditAccessors(t *testing.T) {
	w := newAuditWorld(t)
	leaf, _ := w.issue(true)
	report, err := w.auditor().AuditChain("acc.test", w.chainFor(leaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	leafAudit := report.Certs[0]
	if !leafAudit.Checkable() {
		t.Error("leaf with pointers should be checkable")
	}
	if !leafAudit.EV {
		t.Error("EV flag lost")
	}
	rootAudit := report.Certs[2]
	if rootAudit.Checkable() {
		t.Error("pointer-less root should not be checkable")
	}
	out := report.Render()
	if !strings.Contains(out, "EV") || !strings.Contains(out, "CA") {
		t.Errorf("render flags missing:\n%s", out)
	}
}
