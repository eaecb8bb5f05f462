package browser

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// world is a complete PKI reachable over a simnet fabric: root CA,
// intermediate CA, and helpers to issue leaves and build chains.
type world struct {
	t     testing.TB
	clock *simtime.Clock
	net   *simnet.Network
	root  *ca.CA
	inter *ca.CA
}

// protoMode selects which revocation pointers certificates carry.
type protoMode int

const (
	crlOnly protoMode = iota
	ocspOnly
	bothProtos
)

func newWorld(t testing.TB, mode protoMode) *world {
	t.Helper()
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	net := simnet.New()
	includeCRL := mode == crlOnly || mode == bothProtos
	includeOCSP := mode == ocspOnly || mode == bothProtos
	root, err := ca.NewRoot(ca.Config{
		Name:         "Root",
		CRLBaseURL:   "http://crl.root.test/crl",
		OCSPBaseURL:  "http://ocsp.root.test/ocsp",
		IncludeCRLDP: includeCRL,
		IncludeOCSP:  includeOCSP,
		Clock:        clock.Now,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := ca.NewIntermediate(ca.Config{
		Name:         "Intermediate",
		CRLBaseURL:   "http://crl.inter.test/crl",
		OCSPBaseURL:  "http://ocsp.inter.test/ocsp",
		IncludeCRLDP: includeCRL,
		IncludeOCSP:  includeOCSP,
		Clock:        clock.Now,
		Seed:         2,
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	net.Register("crl.root.test", root.Handler())
	net.Register("ocsp.root.test", root.Handler())
	net.Register("crl.inter.test", inter.Handler())
	net.Register("ocsp.inter.test", inter.Handler())
	return &world{t: t, clock: clock, net: net, root: root, inter: inter}
}

// leaf issues a leaf under the intermediate and returns the full chain
// [leaf, intermediate, root].
func (w *world) leaf(ev bool) ([]*x509x.Certificate, *ca.Record) {
	w.t.Helper()
	cert, rec, err := w.inter.Issue(ca.IssueOptions{
		CommonName: "site.test",
		NotBefore:  w.clock.Now().AddDate(0, -1, 0),
		NotAfter:   w.clock.Now().AddDate(1, 0, 0),
		EV:         ev,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return []*x509x.Certificate{cert, w.inter.Certificate(), w.root.Certificate()}, rec
}

func (w *world) client(p *Profile) *Client {
	return &Client{Profile: p, HTTP: w.net.Client(), Now: w.clock.Now}
}

func (w *world) evaluate(p *Profile, chain []*x509x.Certificate, staple []byte) *Verdict {
	w.t.Helper()
	v, err := w.client(p).Evaluate(chain, staple)
	if err != nil {
		w.t.Fatal(err)
	}
	return v
}

func TestHardenedDetectsRevokedLeaf(t *testing.T) {
	for _, mode := range []protoMode{crlOnly, ocspOnly, bothProtos} {
		w := newWorld(t, mode)
		chain, rec := w.leaf(false)
		if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
			t.Fatal(err)
		}
		v := w.evaluate(Hardened(), chain, nil)
		if v.Outcome != OutcomeReject || !v.RevocationDetected {
			t.Errorf("mode %d: verdict = %+v", mode, v)
		}
		// And a good leaf is accepted.
		goodChain, _ := w.leaf(false)
		v = w.evaluate(Hardened(), goodChain, nil)
		if v.Outcome != OutcomeAccept {
			t.Errorf("mode %d: good leaf rejected: %+v", mode, v)
		}
	}
}

func TestFirefoxChecksOnlyLeafOCSP(t *testing.T) {
	// Revoked leaf, OCSP chain: detected.
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if v := w.evaluate(Firefox40(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("revoked leaf OCSP not detected: %v", v.Outcome)
	}

	// Revoked leaf, CRL-only chain: Firefox never fetches CRLs.
	w2 := newWorld(t, crlOnly)
	chain2, rec2 := w2.leaf(false)
	if err := w2.inter.Revoke(rec2.Serial, w2.clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if v := w2.evaluate(Firefox40(), chain2, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Firefox should not check CRLs: %v", v.Outcome)
	}
	if w2.net.TotalStats().Requests != 0 {
		t.Error("Firefox made network requests on a CRL-only chain")
	}

	// Revoked intermediate, OCSP chain: only for EV.
	w3 := newWorld(t, ocspOnly)
	chainDV, _ := w3.leaf(false)
	if err := w3.root.Revoke(w3.inter.Certificate().SerialNumber, w3.clock.Now(), crl.ReasonCACompromise); err != nil {
		t.Fatal(err)
	}
	if v := w3.evaluate(Firefox40(), chainDV, nil); v.Outcome != OutcomeAccept {
		t.Errorf("non-EV intermediate should not be checked: %v", v.Outcome)
	}
	chainEV, _ := w3.leaf(true)
	if v := w3.evaluate(Firefox40(), chainEV, nil); v.Outcome != OutcomeReject {
		t.Errorf("EV chain with revoked intermediate accepted: %v", v.Outcome)
	}
}

func TestMobileBrowsersNeverCheck(t *testing.T) {
	w := newWorld(t, bothProtos)
	chain, rec := w.leaf(true) // even EV
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Profile{MobileSafari(), AndroidStock(), AndroidChrome(), IEMobile8()} {
		w.net.ResetStats()
		v := w.evaluate(p, chain, nil)
		if v.Outcome != OutcomeAccept {
			t.Errorf("%s: outcome = %v", p.Name, v.Outcome)
		}
		if w.net.TotalStats().Requests != 0 {
			t.Errorf("%s made revocation fetches", p.Name)
		}
		if p.ChecksAnything() {
			t.Errorf("%s claims to check something", p.Name)
		}
	}
}

func TestChromeEVOnly(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	if v := w.evaluate(ChromeOSX(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Chrome OSX checked a non-EV chain: %v", v.Outcome)
	}
	evChain, evRec := w.leaf(true)
	if err := w.inter.Revoke(evRec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	if v := w.evaluate(ChromeOSX(), evChain, nil); v.Outcome != OutcomeReject {
		t.Errorf("Chrome OSX missed a revoked EV leaf: %v", v.Outcome)
	}
}

func TestChromeWindowsInt1CRLOnly(t *testing.T) {
	// Non-EV, CRL-only chain with revoked intermediate: Chrome Windows
	// checks the first intermediate's CRL.
	w := newWorld(t, crlOnly)
	chain, _ := w.leaf(false)
	if err := w.root.Revoke(w.inter.Certificate().SerialNumber, w.clock.Now(), crl.ReasonCACompromise); err != nil {
		t.Fatal(err)
	}
	if v := w.evaluate(ChromeWindows(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("revoked Int1 CRL not detected: %v", v.Outcome)
	}
	// Revoked leaf is NOT checked for non-EV.
	w2 := newWorld(t, crlOnly)
	chain2, rec2 := w2.leaf(false)
	if err := w2.inter.Revoke(rec2.Serial, w2.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	if v := w2.evaluate(ChromeWindows(), chain2, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Chrome Windows checked non-EV leaf: %v", v.Outcome)
	}
	// With both protocols present, the non-EV Int1 CRL check is skipped
	// ("only if it only has a CRL listed").
	w3 := newWorld(t, bothProtos)
	chain3, _ := w3.leaf(false)
	if err := w3.root.Revoke(w3.inter.Certificate().SerialNumber, w3.clock.Now(), crl.ReasonCACompromise); err != nil {
		t.Fatal(err)
	}
	if v := w3.evaluate(ChromeWindows(), chain3, nil); v.Outcome != OutcomeAccept {
		t.Errorf("OnlyIfSoleProtocol not honoured: %v", v.Outcome)
	}
}

func TestSoftFailVersusHardFail(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	w.net.SetFailure("ocsp.inter.test", simnet.FailUnresponsive)
	w.net.SetFailure("ocsp.root.test", simnet.FailUnresponsive)

	if v := w.evaluate(Firefox40(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Firefox should soft-fail: %v", v.Outcome)
	}
	if v := w.evaluate(Hardened(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("Hardened should hard-fail: %v", v.Outcome)
	}
}

func TestIE10WarnsIE11Rejects(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	// Leaf responder down; intermediate's responder still up.
	w.net.SetFailure("ocsp.inter.test", simnet.FailUnresponsive)

	if v := w.evaluate(IE10(), chain, nil); v.Outcome != OutcomeWarn {
		t.Errorf("IE10 = %v, want warn", v.Outcome)
	}
	if v := w.evaluate(IE11(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("IE11 = %v, want reject", v.Outcome)
	}
	if v := w.evaluate(IE7to9(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("IE7-9 = %v, want accept", v.Outcome)
	}
}

func TestInt1UnavailableHardFails(t *testing.T) {
	// IE hard-fails when the first intermediate's revocation info is
	// unavailable (the intermediate's pointers go to the root's
	// endpoints).
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	w.net.SetFailure("ocsp.root.test", simnet.FailUnresponsive)
	if v := w.evaluate(IE7to9(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("IE7-9 Int1 unavailable = %v, want reject", v.Outcome)
	}
	// Safari's hard failure is CRL-specific; on an OCSP-only chain it
	// soft-fails.
	if v := w.evaluate(Safari6to8(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Safari OCSP Int1 unavailable = %v, want accept", v.Outcome)
	}
	wCRL := newWorld(t, crlOnly)
	chainCRL, _ := wCRL.leaf(false)
	wCRL.net.SetFailure("crl.root.test", simnet.FailUnresponsive)
	if v := wCRL.evaluate(Safari6to8(), chainCRL, nil); v.Outcome != OutcomeReject {
		t.Errorf("Safari CRL Int1 unavailable = %v, want reject", v.Outcome)
	}
}

func TestFallbackToCRL(t *testing.T) {
	// Both-protocol chain, OCSP down, leaf revoked: browsers with CRL
	// fallback still detect the revocation.
	w := newWorld(t, bothProtos)
	chain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	w.net.SetFailure("ocsp.inter.test", simnet.FailUnresponsive)
	w.net.SetFailure("ocsp.root.test", simnet.FailUnresponsive)

	v := w.evaluate(Safari6to8(), chain, nil)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("Safari fallback failed: %+v", v)
	}
	sawCRL := false
	for _, e := range v.Events {
		if e.Protocol == "crl" && e.Result == "revoked" {
			sawCRL = true
		}
	}
	if !sawCRL {
		t.Error("fallback did not actually fetch the CRL")
	}
	// Firefox has no fallback: the same chain is accepted.
	if v := w.evaluate(Firefox40(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Firefox should not fall back: %v", v.Outcome)
	}
}

func TestUnknownStatusHandling(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	// Replace the leaf's responder with one that always answers unknown.
	unknown := ocsp.StatusUnknown
	signer, key := w.inter.Signer()
	w.net.Register("ocsp.inter.test", http.StripPrefix("/ocsp", &ocsp.Responder{
		Source:      ocsp.SourceFunc(func(ocsp.CertID) ocsp.SingleResponse { return ocsp.SingleResponse{} }),
		Signer:      signer,
		Key:         key,
		Now:         w.clock.Now,
		ForceStatus: &unknown,
	}))
	if v := w.evaluate(Firefox40(), chain, nil); v.Outcome != OutcomeReject {
		t.Errorf("Firefox should reject unknown: %v", v.Outcome)
	}
	if v := w.evaluate(Safari6to8(), chain, nil); v.Outcome != OutcomeAccept {
		t.Errorf("Safari incorrectly rejects unknown: %v", v.Outcome)
	}
}

func makeStaple(t *testing.T, w *world, rec *ca.Record, status ocsp.Status) []byte {
	t.Helper()
	signer, key := w.inter.Signer()
	staple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID:         ocsp.NewCertID(signer, rec.Serial),
			Status:     status,
			RevokedAt:  w.clock.Now().Add(-time.Hour),
			Reason:     crl.ReasonKeyCompromise,
			ThisUpdate: w.clock.Now(),
			NextUpdate: w.clock.Now().Add(96 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	return staple
}

func TestStapleHandling(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	goodStaple := makeStaple(t, w, rec, ocsp.StatusGood)
	revokedStaple := makeStaple(t, w, rec, ocsp.StatusRevoked)

	// A good staple satisfies the leaf with no network fetch.
	w.net.ResetStats()
	if v := w.evaluate(Firefox40(), chain, goodStaple); v.Outcome != OutcomeAccept {
		t.Errorf("good staple rejected: %v", v.Outcome)
	}
	if w.net.TotalStats().Requests != 0 {
		t.Error("good staple still triggered a fetch")
	}

	// A revoked staple: respected by Firefox, ignored by Android.
	if v := w.evaluate(Firefox40(), chain, revokedStaple); v.Outcome != OutcomeReject {
		t.Errorf("Firefox ignored revoked staple: %v", v.Outcome)
	}
	if v := w.evaluate(AndroidStock(), chain, revokedStaple); v.Outcome != OutcomeAccept {
		t.Errorf("Android Stock should ignore staples entirely: %v", v.Outcome)
	}

	// Chrome OS X does not respect the revoked staple; with the
	// responder firewalled it soft-fails and accepts — the GRC
	// revoked-staple scenario. The leaf must be EV for Chrome to check
	// at all.
	evChain, evRec := w.leaf(true)
	evRevokedStaple := makeStaple(t, w, evRec, ocsp.StatusRevoked)
	w.net.SetFailure("ocsp.inter.test", simnet.FailUnresponsive)
	w.net.SetFailure("ocsp.root.test", simnet.FailUnresponsive)
	if v := w.evaluate(ChromeOSX(), evChain, evRevokedStaple); v.Outcome != OutcomeAccept {
		t.Errorf("Chrome OSX revoked-staple behaviour: %v, want accept", v.Outcome)
	}
	// Whereas Chrome Windows respects the staple and rejects.
	if v := w.evaluate(ChromeWindows(), evChain, evRevokedStaple); v.Outcome != OutcomeReject {
		t.Errorf("Chrome Windows should respect revoked staple: %v", v.Outcome)
	}
}

func TestStapleFromWrongSignerIgnored(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	// Forge a staple signed by an unrelated CA.
	rogue, err := ca.NewRoot(ca.Config{Name: "Rogue", Clock: w.clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	rogueCert, rogueKey := rogue.Signer()
	forged, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID:         ocsp.NewCertID(w.inter.Certificate(), rec.Serial),
			Status:     ocsp.StatusGood,
			ThisUpdate: w.clock.Now(),
		}},
	}, rogueCert, rogueKey)
	if err != nil {
		t.Fatal(err)
	}
	// The forged staple must be ignored and the online check performed
	// — which reveals the truth (revoked).
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	if v := w.evaluate(Firefox40(), chain, forged); v.Outcome != OutcomeReject {
		t.Errorf("forged staple masked a revocation: %v", v.Outcome)
	}
}

func TestEvaluateRequiresChain(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	if _, err := w.client(Hardened()).Evaluate(chain[:1], nil); err == nil {
		t.Error("accepted a chain without a root")
	}
}

func TestAllProfilesAreWellFormed(t *testing.T) {
	profiles := All()
	if len(profiles) != 15 {
		t.Fatalf("All() = %d profiles", len(profiles))
	}
	seen := map[string]bool{}
	mobiles := 0
	for _, p := range profiles {
		if p.Name == "" || seen[p.Name] {
			t.Errorf("bad or duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Mobile {
			mobiles++
			if p.ChecksAnything() || p.UseStaple {
				t.Errorf("%s: mobile browsers check nothing (§6.4)", p.Name)
			}
		}
	}
	if mobiles != 4 {
		t.Errorf("mobile profiles = %d, want 4", mobiles)
	}
}

func TestMultiStapleVerifiesOffline(t *testing.T) {
	// RFC 6961: with staples for leaf AND intermediate, a hard-failing
	// client needs no network at all — and still catches a stapled
	// revoked intermediate.
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	leafStaple := makeStaple(t, w, rec, ocsp.StatusGood)
	signer, key := w.root.Signer()
	interStaple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID:         ocsp.NewCertID(signer, w.inter.Certificate().SerialNumber),
			Status:     ocsp.StatusGood,
			ThisUpdate: w.clock.Now(),
			NextUpdate: w.clock.Now().Add(96 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the entire revocation infrastructure.
	for _, h := range []string{"ocsp.root.test", "ocsp.inter.test", "crl.root.test", "crl.inter.test"} {
		w.net.SetFailure(h, simnet.FailUnresponsive)
	}

	multi := Hardened()
	multi.MultiStaple = true
	client := w.client(multi)

	// Leaf-only staple: intermediate check still needs the dark network.
	v, err := client.EvaluateWithStaples(chain, [][]byte{leafStaple})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutcomeReject {
		t.Errorf("leaf-only staple under outage = %v, want reject", v.Outcome)
	}
	// Full staples: offline verification succeeds.
	w.net.ResetStats()
	v, err = client.EvaluateWithStaples(chain, [][]byte{leafStaple, interStaple})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutcomeAccept {
		t.Errorf("multi-staple under outage = %v, want accept", v.Outcome)
	}
	if w.net.TotalStats().Requests != 0 {
		t.Error("multi-staple evaluation should need zero fetches")
	}
	// A profile without MultiStaple ignores the intermediate staple.
	v, err = w.client(Hardened()).EvaluateWithStaples(chain, [][]byte{leafStaple, interStaple})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutcomeReject {
		t.Errorf("non-multi-staple profile should still hard-fail: %v", v.Outcome)
	}

	// Stapled revoked intermediate is caught offline.
	revokedInter, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: w.clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID:         ocsp.NewCertID(signer, w.inter.Certificate().SerialNumber),
			Status:     ocsp.StatusRevoked,
			RevokedAt:  w.clock.Now().Add(-time.Hour),
			Reason:     crl.ReasonCACompromise,
			ThisUpdate: w.clock.Now(),
			NextUpdate: w.clock.Now().Add(96 * time.Hour),
		}},
	}, signer, key)
	if err != nil {
		t.Fatal(err)
	}
	v, err = client.EvaluateWithStaples(chain, [][]byte{leafStaple, revokedInter})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("stapled revoked intermediate missed: %+v", v)
	}
}

func TestCacheAvoidsRefetches(t *testing.T) {
	// OCSP cache on an OCSP-primary chain; CRL cache separately below.
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	client := w.client(Hardened())
	cache := NewCache()
	client.Cache = cache

	if v := mustEval(t, client, chain); v.Outcome != OutcomeAccept {
		t.Fatalf("first evaluation = %v", v.Outcome)
	}
	first := w.net.TotalStats().Requests
	if first == 0 {
		t.Fatal("no fetches on cold cache")
	}
	if _, ocsps := cache.count(); ocsps == 0 {
		t.Fatal("OCSP cache not populated")
	}
	if v := mustEval(t, client, chain); v.Outcome != OutcomeAccept {
		t.Fatalf("second evaluation = %v", v.Outcome)
	}
	if got := w.net.TotalStats().Requests; got != first {
		t.Errorf("warm cache refetched: %d -> %d requests", first, got)
	}
	// A verdict event should note the cache hit.
	v := mustEval(t, client, chain)
	sawCached := false
	for _, e := range v.Events {
		if strings.HasSuffix(e.Result, "(cached)") {
			sawCached = true
		}
	}
	if !sawCached {
		t.Error("no cached events logged")
	}
	// After the CRL/OCSP validity windows lapse, the cache expires and
	// fetches resume.
	w.clock.Advance(8 * 24 * time.Hour)
	if v := mustEval(t, client, chain); v.Outcome != OutcomeAccept {
		t.Fatalf("post-expiry evaluation = %v", v.Outcome)
	}
	if got := w.net.TotalStats().Requests; got == first {
		t.Error("expired cache never refreshed")
	}

	// CRL caching on a CRL-only chain.
	wc := newWorld(t, crlOnly)
	chainCRL, _ := wc.leaf(false)
	crlClient := wc.client(Hardened())
	crlCache := NewCache()
	crlClient.Cache = crlCache
	mustEval(t, crlClient, chainCRL)
	crlFirst := wc.net.TotalStats().Requests
	if crls, _ := crlCache.count(); crls == 0 {
		t.Fatal("CRL cache not populated")
	}
	mustEval(t, crlClient, chainCRL)
	if got := wc.net.TotalStats().Requests; got != crlFirst {
		t.Errorf("warm CRL cache refetched: %d -> %d", crlFirst, got)
	}
}

func mustEval(t *testing.T, c *Client, chainCerts []*x509x.Certificate) *Verdict {
	t.Helper()
	v, err := c.Evaluate(chainCerts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.CRL("x", time.Now()); ok {
		t.Error("nil cache returned a CRL")
	}
	if _, ok := c.OCSP(nil, nil, time.Now()); ok {
		t.Error("nil cache returned a response")
	}
	c.PutCRL("x", &crl.CRL{})
	c.PutOCSP(nil, nil, ocsp.SingleResponse{})
	if a, b := c.count(); a != 0 || b != 0 {
		t.Error("nil cache non-empty")
	}
}
