package main

// One table test per revocation channel: a CRL, an OCSP answer from a
// responder, an OCSP answer stapled into the handshake. Each row is one
// failure class (or a good or revoked answer), and each column is a
// caller that applies the channel's rule: core.Auditor, browser.Client,
// the crawler and `rev crlset`. This package is the one that reaches all
// four. Every forged or damaged answer claims the revoked leaf is good,
// so a check that lets one through turns a rejection into an accept.

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

const (
	chanCRLHost  = "crl.chan.test"
	chanOCSPHost = "ocsp.chan.test"
)

// chanWorld is one CA on a simnet fabric with two leaves, one of them
// revoked (keyCompromise, on the world's first day).
type chanWorld struct {
	t             *testing.T
	clock         *simtime.Clock
	net           *simnet.Network
	ca            *ca.CA
	good, revoked *x509x.Certificate
}

func newChanWorld(t *testing.T, includeCRL, includeOCSP bool) *chanWorld {
	t.Helper()
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	authority, err := ca.NewRoot(ca.Config{
		Name:         "Channel CA",
		CRLBaseURL:   "http://" + chanCRLHost + "/crl",
		OCSPBaseURL:  "http://" + chanOCSPHost + "/ocsp",
		IncludeCRLDP: includeCRL,
		IncludeOCSP:  includeOCSP,
		Clock:        clock.Now,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &chanWorld{t: t, clock: clock, net: simnet.New(), ca: authority}
	w.net.Register(chanCRLHost, authority.Handler())
	w.net.Register(chanOCSPHost, authority.Handler())
	issue := func(cn string) *x509x.Certificate {
		cert, _, err := authority.Issue(ca.IssueOptions{
			CommonName: cn,
			NotBefore:  clock.Now().AddDate(0, -1, 0),
			NotAfter:   clock.Now().AddDate(1, 0, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	w.good, w.revoked = issue("good.chan.test"), issue("revoked.chan.test")
	if err := authority.Revoke(w.revoked.SerialNumber, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	return w
}

// serve makes host answer every request with body.
func (w *chanWorld) serve(host string, body []byte) {
	w.net.Register(host, http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) { rw.Write(body) }))
}

// crlBytes signs a CRL with the CA's name and the given key, listing
// entries, for the window [thisUpdate, thisUpdate+24h].
func (w *chanWorld) crlBytes(key *ecdsa.PrivateKey, thisUpdate time.Time, entries []crl.Entry) []byte {
	w.t.Helper()
	encoded, err := new(crl.EncodeCache).Extend(entries)
	if err != nil {
		w.t.Fatal(err)
	}
	raw, err := crl.CreateEncoded(&crl.Template{ThisUpdate: thisUpdate, NextUpdate: thisUpdate.Add(24 * time.Hour)},
		encoded, w.ca.Certificate(), key)
	if err != nil {
		w.t.Fatal(err)
	}
	return raw
}

// delegate issues an OCSP responder certificate under the CA, with the
// OCSPSigning extended key usage when authorised is set.
func (w *chanWorld) delegate(authorised bool) (*x509x.Certificate, *ecdsa.PrivateKey) {
	w.t.Helper()
	key, err := x509x.GenerateKey()
	if err != nil {
		w.t.Fatal(err)
	}
	tmpl := x509x.NewTemplate(big.NewInt(900), x509x.Name{CommonName: "Channel CA OCSP"},
		w.clock.Now().AddDate(0, -1, 0), w.clock.Now().AddDate(1, 0, 0))
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUServerAuth}
	if authorised {
		tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUOCSPSigning}
	}
	caCert, caKey := w.ca.Signer()
	raw, err := x509x.Create(tmpl, caCert, caKey, &key.PublicKey)
	if err != nil {
		w.t.Fatal(err)
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		w.t.Fatal(err)
	}
	return cert, key
}

// response signs an OCSP response holding one answer for serial, for the
// window [thisUpdate, thisUpdate+96h].
func (w *chanWorld) response(signer *x509x.Certificate, key *ecdsa.PrivateKey, serial *big.Int, status ocsp.Status, thisUpdate time.Time) []byte {
	w.t.Helper()
	sr := ocsp.SingleResponse{
		ID: ocsp.NewCertID(w.ca.Certificate(), serial), Status: status,
		ThisUpdate: thisUpdate, NextUpdate: thisUpdate.Add(96 * time.Hour),
	}
	if status == ocsp.StatusRevoked {
		sr.RevokedAt, sr.Reason = w.clock.Now(), crl.ReasonKeyCompromise
	}
	raw, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{ProducedAt: thisUpdate, Responses: []ocsp.SingleResponse{sr}}, signer, key)
	if err != nil {
		w.t.Fatal(err)
	}
	return raw
}

// audit runs the auditor on [leaf, CA] and returns the leaf's row and the
// rendered report.
func (w *chanWorld) audit(leaf *x509x.Certificate, staple []byte) (core.CertAudit, string) {
	w.t.Helper()
	auditor := &core.Auditor{HTTP: w.net.Client(), Now: w.clock.Now}
	report, err := auditor.AuditChain("chan.test", []*x509x.Certificate{leaf, w.ca.Certificate()}, staple)
	if err != nil {
		w.t.Fatal(err)
	}
	return report.Certs[0], report.Render()
}

// browse evaluates [leaf, CA] with the Hardened profile, which checks
// every pointer and fails hard, and returns its events as "protocol
// result" strings joined by "; ", and its outcome.
func (w *chanWorld) browse(leaf *x509x.Certificate, staple []byte) (string, string) {
	w.t.Helper()
	client := &browser.Client{Profile: browser.Hardened(), HTTP: w.net.Client(), Now: w.clock.Now}
	v, err := client.Evaluate([]*x509x.Certificate{leaf, w.ca.Certificate()}, staple)
	if err != nil {
		w.t.Fatal(err)
	}
	events := make([]string, len(v.Events))
	for i, e := range v.Events {
		events[i] = e.Protocol + " " + e.Result
	}
	outcome := v.Outcome.String()
	if v.RevocationDetected {
		outcome += ", revocation detected"
	}
	return strings.Join(events, "; "), outcome
}

// checkRow compares one caller's report with the row's expectation.
func checkRow(t *testing.T, row, caller, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: %s reports %q, want %q", row, caller, got, want)
	}
}

// checkAudit compares the auditor's Status and Detail for one mechanism
// and checks that the rendered report carries the Detail.
func checkAudit(t *testing.T, row string, got core.MechanismResult, render string, want core.Status, wantDetail string) {
	t.Helper()
	checkRow(t, row, "auditor", fmt.Sprintf("%s: %s", got.Status, got.Detail), fmt.Sprintf("%s: %s", want, wantDetail))
	if wantDetail != "" && !strings.Contains(render, " — "+wantDetail+"\n") {
		t.Errorf("%s: rendered report lacks %q:\n%s", row, wantDetail, render)
	}
}

// crawlCRL crawls url once, verifying against the CA when verify is set,
// and returns "recorded" or the FetchError class; the crawler's counters
// must count exactly that one outcome.
func (w *chanWorld) crawlCRL(url string, verify bool) string {
	w.t.Helper()
	c := &crawler.Crawler{Client: w.net.Client(), Now: w.clock.Now}
	if verify {
		c.Verify = map[string]*x509x.Certificate{url: w.ca.Certificate()}
	}
	snap := c.CrawlCRLs([]string{url})
	got := "recorded"
	if err := snap.Failures[url]; err != nil {
		var fe *crawler.FetchError
		if !errors.As(err, &fe) {
			w.t.Fatalf("crawl failure %v is not a FetchError", err)
		}
		got = fe.Class.String()
	} else if snap.CRLs[url] == nil {
		w.t.Fatalf("crawl of %s neither recorded nor failed", url)
	}
	st := c.Stats()
	counts := map[string]int64{
		"recorded": st.Successes, "transport": st.TransportErrors, "http-status": st.HTTPErrors,
		"read": st.ReadErrors, "parse": st.ParseErrors, "verify": st.VerifyErrors,
	}
	for class, n := range counts {
		if want := map[bool]int64{true: 1}[class == got]; n != want {
			w.t.Errorf("crawl of %s (%s): %s counter = %d, want %d", url, got, class, n, want)
		}
	}
	return got
}

// crlsetRun runs `rev crlset` over a directory holding body as its one
// CRL file and returns "exit N" with the file's fate: the error, "skipped",
// or the parsed line.
func (w *chanWorld) crlsetRun(body []byte) string {
	w.t.Helper()
	dir := w.t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "0.crl"), body, 0o644); err != nil {
		w.t.Fatal(err)
	}
	issuerPath := filepath.Join(dir, "issuer.pem")
	if err := os.WriteFile(issuerPath, certPEM(w.ca.Certificate()), 0o644); err != nil {
		w.t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"crlset", "-crls", dir, "-issuer", issuerPath}, &out, &errOut)
	switch {
	case code != 0:
		return fmt.Sprintf("exit %d", code)
	case strings.Contains(errOut.String(), "skipping"):
		return "exit 0, skipped"
	}
	line, _, _ := strings.Cut(out.String(), "\n")
	return "exit 0, " + strings.Join(strings.Fields(line), " ")
}

func TestCRLChannel(t *testing.T) {
	const (
		unavailable = core.StatusUnavailable
		lost        = "reject"
	)
	other, err := ca.NewRoot(ca.Config{Name: "Other CA", CRLBaseURL: "http://crl.other.test/crl", IncludeCRLDP: true})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.CRLBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// body is what the distribution point serves: nil is the CA's
		// own list, and down makes the host unresponsive.
		body      func(w *chanWorld) []byte
		down      bool
		leafGood  bool
		status    core.Status
		detail    string
		event     string
		outcome   string
		crawl     string // with Verify naming the CA
		crawlOpen string // with no Verify, as the study crawls
		crlset    string // "" where the channel has no file to read
	}{
		{name: "good", leafGood: true, status: core.StatusGood, detail: "1 entries",
			event: "crl good", outcome: "accept", crawl: "recorded", crawlOpen: "recorded", crlset: "exit 0, CRLs parsed: 1 (1 revocations)"},
		{name: "revoked", status: core.StatusRevoked, detail: "revoked 2015-03-01 (keyCompromise)",
			event: "crl revoked", outcome: "reject, revocation detected", crawl: "recorded", crawlOpen: "recorded", crlset: "exit 0, CRLs parsed: 1 (1 revocations)"},
		{name: "unparseable", body: func(*chanWorld) []byte { return []byte("not a CRL") },
			status: unavailable, detail: "crl: der: offset 2: content of 111 bytes: truncated input",
			event: "crl unavailable", outcome: lost, crawl: "parse", crawlOpen: "parse", crlset: "exit 1"},
		{name: "bad signature", body: func(w *chanWorld) []byte {
			key, err := x509x.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			return w.crlBytes(key, w.clock.Now(), nil)
		}, status: unavailable, detail: "x509x: ECDSA signature verification failed",
			event: "crl bad-signature", outcome: lost, crawl: "verify", crawlOpen: "recorded", crlset: "exit 0, skipped"},
		{name: "foreign issuer", body: func(*chanWorld) []byte { return foreign },
			status: unavailable, detail: `crl: issuer "CN=Other CA CA, O=Other CA" does not match certificate subject "CN=Channel CA CA, O=Channel CA"`,
			event: "crl bad-signature", outcome: lost, crawl: "verify", crawlOpen: "recorded", crlset: "exit 0, skipped"},
		{name: "not current", body: func(w *chanWorld) []byte {
			_, key := w.ca.Signer()
			return w.crlBytes(key, w.clock.Now().AddDate(0, 0, -10), []crl.Entry{{Serial: w.revoked.SerialBytes(), RevokedAt: w.clock.Now().AddDate(0, 0, -10), Reason: crl.ReasonKeyCompromise}})
		}, status: unavailable, detail: "CRL outside validity window",
			event: "crl stale", outcome: lost, crawl: "recorded", crawlOpen: "recorded", crlset: "exit 0, CRLs parsed: 1 (1 revocations)"},
		{name: "unavailable", down: true, status: unavailable,
			detail: `Get "http://crl.chan.test/crl/0.crl": simnet: host "crl.chan.test": unresponsive`,
			event:  "crl unavailable", outcome: lost, crawl: "transport", crawlOpen: "transport"},
	} {
		w := newChanWorld(t, true, false)
		body, err := w.ca.CRLBytes(0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.body != nil {
			body = tc.body(w)
			w.serve(chanCRLHost, body)
		}
		if tc.down {
			w.net.SetFailure(chanCRLHost, simnet.FailUnresponsive)
		}
		leaf := w.revoked
		if tc.leafGood {
			leaf = w.good
		}
		row, render := w.audit(leaf, nil)
		checkAudit(t, tc.name, row.CRL, render, tc.status, tc.detail)
		events, outcome := w.browse(leaf, nil)
		checkRow(t, tc.name, "browser", events+" -> "+outcome, tc.event+" -> "+tc.outcome)
		url := leaf.CRLDistributionPoints[0]
		checkRow(t, tc.name, "crawler", w.crawlCRL(url, true), tc.crawl)
		checkRow(t, tc.name, "crawler without Verify", w.crawlCRL(url, false), tc.crawlOpen)
		if tc.crlset != "" {
			checkRow(t, tc.name, "rev crlset", w.crlsetRun(body), tc.crlset)
		}
	}
}

// crawlOCSP runs the crawler's OCSP-only check for leaf and returns
// "recorded <status>" or the counter its failure went to; every other
// counter must stay at zero.
func (w *chanWorld) crawlOCSP(leaf *x509x.Certificate) string {
	w.t.Helper()
	c := &crawler.Crawler{Client: w.net.Client(), Now: w.clock.Now}
	res := c.CheckOCSPOnly([]crawler.OCSPTarget{{ResponderURL: leaf.OCSPServers[0], Issuer: w.ca.Certificate(), Serial: leaf.SerialNumber}})
	st := c.Stats()
	counts := map[string]int64{
		"transport": st.OCSPTransportErrors, "http-status": st.OCSPHTTPErrors,
		"responder": st.OCSPResponderErrors, "other": st.OCSPOtherErrors,
	}
	got := "recorded " + res[0].Response.Status.String()
	if res[0].Err != nil {
		got = ""
		for class, n := range counts {
			if n == 1 {
				got += class
			}
		}
	}
	for class, n := range counts {
		if want := map[bool]int64{true: 1}[class == got]; n != want {
			w.t.Errorf("OCSP crawl (%s): %s counter = %d, want %d", got, class, n, want)
		}
	}
	if st.OCSPAttempts != 1 {
		w.t.Errorf("OCSP crawl (%s): %d attempts, want 1", got, st.OCSPAttempts)
	}
	return got
}

// ocspAnswers are the OCSP answers both OCSP tables serve, keyed by row:
// each damaged or forged one claims the revoked leaf is good.
func ocspAnswers(w *chanWorld) map[string][]byte {
	caCert, caKey := w.ca.Signer()
	now := w.clock.Now().Add(-time.Hour)
	forger, err := x509x.GenerateKey()
	if err != nil {
		w.t.Fatal(err)
	}
	authorised, authorisedKey := w.delegate(true)
	unauthorised, unauthorisedKey := w.delegate(false)
	return map[string][]byte{
		"delegate good":          w.response(authorised, authorisedKey, w.good.SerialNumber, ocsp.StatusGood, now),
		"delegate revoked":       w.response(authorised, authorisedKey, w.revoked.SerialNumber, ocsp.StatusRevoked, now),
		"unparseable":            []byte("not an OCSP response"),
		"error status":           ocsp.ErrorResponseDER(ocsp.RespTryLater),
		"bad signature":          w.response(caCert, forger, w.revoked.SerialNumber, ocsp.StatusGood, now),
		"unauthorised delegate":  w.response(unauthorised, unauthorisedKey, w.revoked.SerialNumber, ocsp.StatusGood, now),
		"not covering":           w.response(caCert, caKey, w.good.SerialNumber, ocsp.StatusGood, now),
		"not current":            w.response(caCert, caKey, w.revoked.SerialNumber, ocsp.StatusRevoked, now.AddDate(0, 0, -10)),
		"not current, delegated": w.response(authorised, authorisedKey, w.revoked.SerialNumber, ocsp.StatusRevoked, now.AddDate(0, 0, -10)),
	}
}

func TestOCSPChannel(t *testing.T) {
	const (
		unavailable = core.StatusUnavailable
		lost        = "reject"
		sigDetail   = "ocsp: response signed neither by the CA nor by an authorized delegated responder"
	)
	for _, tc := range []struct {
		name     string
		served   bool // the row's answer from ocspAnswers; the CA's responder otherwise
		down     bool
		leafGood bool
		status   core.Status
		detail   string
		event    string
		outcome  string
		crawl    string
	}{
		{name: "good", leafGood: true, status: core.StatusGood,
			event: "ocsp good", outcome: "accept", crawl: "recorded good"},
		{name: "revoked", status: core.StatusRevoked, detail: "revoked 2015-03-01 (keyCompromise)",
			event: "ocsp revoked", outcome: "reject, revocation detected", crawl: "recorded revoked"},
		{name: "delegate good", served: true, leafGood: true, status: core.StatusGood,
			event: "ocsp good", outcome: "accept", crawl: "recorded good"},
		{name: "delegate revoked", served: true, status: core.StatusRevoked, detail: "revoked 2015-03-01 (keyCompromise)",
			event: "ocsp revoked", outcome: "reject, revocation detected", crawl: "recorded revoked"},
		{name: "unparseable", served: true, status: unavailable, detail: "ocsp: response: der: offset 2: content of 111 bytes: truncated input",
			event: "ocsp unavailable", outcome: lost, crawl: "other"},
		{name: "error status", served: true, status: unavailable, detail: "ocsp: responder returned tryLater",
			event: "ocsp unavailable", outcome: lost, crawl: "responder"},
		{name: "bad signature", served: true, status: unavailable, detail: sigDetail,
			event: "ocsp unavailable", outcome: lost, crawl: "other"},
		{name: "unauthorised delegate", served: true, status: unavailable, detail: sigDetail,
			event: "ocsp unavailable", outcome: lost, crawl: "other"},
		{name: "not covering", served: true, status: unavailable, detail: "ocsp: response does not cover requested certificate",
			event: "ocsp unavailable", outcome: lost, crawl: "other"},
		{name: "not current", served: true, status: unavailable, detail: "response outside validity window",
			event: "ocsp stale", outcome: lost, crawl: "recorded revoked"},
		{name: "not current, delegated", served: true, status: unavailable, detail: "response outside validity window",
			event: "ocsp stale", outcome: lost, crawl: "recorded revoked"},
		{name: "unavailable", down: true, status: unavailable,
			detail: `ocsp: fetch: Get "http://ocsp.chan.test/ocsp/`,
			event:  "ocsp unavailable", outcome: lost, crawl: "transport"},
	} {
		w := newChanWorld(t, false, true)
		if tc.served {
			w.serve(chanOCSPHost, ocspAnswers(w)[tc.name])
		}
		if tc.down {
			w.net.SetFailure(chanOCSPHost, simnet.FailUnresponsive)
		}
		leaf := w.revoked
		if tc.leafGood {
			leaf = w.good
		}
		row, render := w.audit(leaf, nil)
		if tc.down {
			// The fetch error names the encoded request; its prefix and
			// suffix are what the auditor adds and simnet says.
			if !strings.HasPrefix(row.OCSP.Detail, tc.detail) || !strings.HasSuffix(row.OCSP.Detail, `": simnet: host "ocsp.chan.test": unresponsive`) {
				t.Errorf("%s: auditor detail %q", tc.name, row.OCSP.Detail)
			}
			tc.detail = row.OCSP.Detail
		}
		checkAudit(t, tc.name, row.OCSP, render, tc.status, tc.detail)
		events, outcome := w.browse(leaf, nil)
		checkRow(t, tc.name, "browser", events+" -> "+outcome, tc.event+" -> "+tc.outcome)
		checkRow(t, tc.name, "crawler", w.crawlOCSP(leaf), tc.crawl)
	}
}

func TestStapleChannel(t *testing.T) {
	const (
		unavailable = core.StatusUnavailable
		sigDetail   = "ocsp: response signed neither by the CA nor by an authorized delegated responder"
		// The leaf's responder is down, so an unusable staple leaves the
		// hard-failing browser nothing to go on.
		fallback = "; ocsp unavailable -> reject"
	)
	for _, tc := range []struct {
		name     string
		leafGood bool
		status   core.Status
		detail   string
		browser  string
	}{
		{name: "delegate good", leafGood: true, status: core.StatusGood, browser: "staple good -> accept"},
		{name: "delegate revoked", status: core.StatusRevoked, detail: "revoked 2015-03-01 (keyCompromise)",
			browser: "staple revoked -> reject, revocation detected"},
		{name: "unparseable", status: unavailable, detail: "ocsp: response: der: offset 2: content of 111 bytes: truncated input",
			browser: "staple invalid" + fallback},
		{name: "error status", status: unavailable, detail: "tryLater", browser: "staple invalid" + fallback},
		{name: "bad signature", status: unavailable, detail: sigDetail, browser: "staple bad-signature" + fallback},
		{name: "unauthorised delegate", status: unavailable, detail: sigDetail, browser: "staple bad-signature" + fallback},
		{name: "not covering", status: unavailable, detail: "staple does not cover the leaf", browser: "staple stale" + fallback},
		{name: "not current", status: unavailable, detail: "staple outside validity window", browser: "staple stale" + fallback},
		{name: "not current, delegated", status: unavailable, detail: "staple outside validity window", browser: "staple stale" + fallback},
	} {
		w := newChanWorld(t, false, true)
		w.net.SetFailure(chanOCSPHost, simnet.FailUnresponsive)
		staple := ocspAnswers(w)[tc.name]
		leaf := w.revoked
		if tc.leafGood {
			leaf = w.good
		}
		row, render := w.audit(leaf, staple)
		checkAudit(t, tc.name, row.Staple, render, tc.status, tc.detail)
		events, outcome := w.browse(leaf, staple)
		checkRow(t, tc.name, "browser", events+" -> "+outcome, tc.browser)
	}
}
