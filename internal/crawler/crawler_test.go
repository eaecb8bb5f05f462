package crawler

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// testWorld wires a CA into a simnet fabric.
type testWorld struct {
	clock     *simtime.Clock
	net       *simnet.Network
	authority *ca.CA
	crawler   *Crawler
}

func newWorld(t testing.TB) *testWorld {
	t.Helper()
	clock := simtime.NewClock(simtime.CrawlStart)
	net := simnet.New()
	authority, err := ca.NewRoot(ca.Config{
		Name:              "CrawlCA",
		NumCRLShards:      2,
		CRLBaseURL:        "http://crl.crawlca.test/crl",
		OCSPBaseURL:       "http://ocsp.crawlca.test/ocsp",
		IncludeCRLDP:      true,
		IncludeOCSP:       true,
		ReuseUnchangedCRL: true,
		Clock:             clock.Now,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Register("crl.crawlca.test", authority.Handler())
	net.Register("ocsp.crawlca.test", authority.Handler())
	return &testWorld{
		clock:     clock,
		net:       net,
		authority: authority,
		crawler: &Crawler{
			Client: net.Client(),
			Now:    clock.Now,
			Verify: map[string]*x509x.Certificate{
				authority.CRLURL(0): authority.Certificate(),
				authority.CRLURL(1): authority.Certificate(),
			},
		},
	}
}

func (w *testWorld) issue(t testing.TB) *ca.Record {
	t.Helper()
	return w.authority.IssueRecord(ca.IssueOptions{
		CommonName: "h.test",
		NotBefore:  w.clock.Now(),
		NotAfter:   w.clock.Now().AddDate(1, 0, 0),
	})
}

func TestCrawlDownloadsAndParses(t *testing.T) {
	w := newWorld(t)
	rec := w.issue(t)
	w.clock.Advance(time.Hour)
	if err := w.authority.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	urls := []string{w.authority.CRLURL(0), w.authority.CRLURL(1)}
	snap := w.crawler.CrawlCRLs(urls)
	if len(snap.Failures) != 0 {
		t.Fatalf("failures: %v", snap.Failures)
	}
	if len(snap.CRLs) != 2 {
		t.Fatalf("CRLs = %d", len(snap.CRLs))
	}
	if snap.Bytes <= 0 {
		t.Error("no bytes accounted")
	}
	if _, ok := snap.CRLs[rec.CRLURL].LookupSerial(rec.Serial.Bytes()); !ok {
		t.Error("revocation missing from crawled CRL")
	}
}

func TestCrawlRecordsFailures(t *testing.T) {
	w := newWorld(t)
	urls := []string{
		w.authority.CRLURL(0),
		"http://nonexistent.test/x.crl",     // NXDOMAIN
		w.authority.CRLURL(0) + "bogus.crl", // 404 shape: /crl/0.crlbogus.crl
	}
	snap := w.crawler.CrawlCRLs(urls)
	if len(snap.CRLs) != 1 {
		t.Errorf("CRLs = %d", len(snap.CRLs))
	}
	if len(snap.Failures) != 2 {
		t.Errorf("failures = %v", snap.Failures)
	}
	// Unresponsive host.
	w.net.SetFailure("crl.crawlca.test", simnet.FailUnresponsive)
	snap = w.crawler.CrawlCRLs([]string{w.authority.CRLURL(0)})
	if len(snap.Failures) != 1 {
		t.Error("unresponsive host should fail")
	}
}

func TestCrawlRejectsBadSignature(t *testing.T) {
	w := newWorld(t)
	// Verify against the wrong issuer.
	other, err := ca.NewRoot(ca.Config{Name: "Other", Clock: w.clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	w.crawler.Verify[w.authority.CRLURL(0)] = other.Certificate()
	snap := w.crawler.CrawlCRLs([]string{w.authority.CRLURL(0)})
	if len(snap.Failures) != 1 {
		t.Error("forged CRL accepted")
	}
}

func TestCheckOCSPOnly(t *testing.T) {
	w := newWorld(t)
	rec := w.issue(t)
	bad := w.issue(t)
	w.clock.Advance(time.Hour)
	if err := w.authority.Revoke(bad.Serial, w.clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	results := w.crawler.CheckOCSPOnly([]OCSPTarget{
		{ResponderURL: "http://ocsp.crawlca.test/ocsp", Issuer: w.authority.Certificate(), Serial: rec.Serial},
		{ResponderURL: "http://ocsp.crawlca.test/ocsp", Issuer: w.authority.Certificate(), Serial: bad.Serial},
		{ResponderURL: "http://down.test/ocsp", Issuer: w.authority.Certificate(), Serial: rec.Serial},
	})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[0].Response.Status != ocsp.StatusGood {
		t.Errorf("good check: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Response.Status != ocsp.StatusRevoked {
		t.Errorf("revoked check: %+v", results[1])
	}
	if results[2].Err == nil {
		t.Error("unreachable responder should error")
	}
}

func TestArchiveOrderingAndLookup(t *testing.T) {
	a := NewArchive()
	if _, ok := a.Latest(); ok {
		t.Error("empty archive has Latest")
	}
	d0 := simtime.CrawlStart
	for i := 0; i < 5; i++ {
		a.Add(&Snapshot{Day: d0.AddDate(0, 0, i)})
	}
	if a.Len() != 5 {
		t.Fatalf("len = %d", a.Len())
	}
	for i, snap := range a.Snapshots() {
		if !snap.Day.Equal(d0.AddDate(0, 0, i)) {
			t.Errorf("snapshot %d: day %v", i, snap.Day)
		}
	}
	latest, _ := a.Latest()
	if !latest.Day.Equal(d0.AddDate(0, 0, 4)) {
		t.Errorf("latest = %v", latest.Day)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add accepted")
		}
	}()
	a.Add(&Snapshot{Day: d0})
}

func TestParallelCrawlMatchesSerial(t *testing.T) {
	w := newWorld(t)
	var recs []*ca.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, w.issue(t))
	}
	w.clock.Advance(time.Hour)
	for i := 0; i < 10; i++ {
		if err := w.authority.Revoke(recs[i].Serial, w.clock.Now(), crl.ReasonUnspecified); err != nil {
			t.Fatal(err)
		}
	}
	urls := []string{
		w.authority.CRLURL(0), w.authority.CRLURL(1),
		"http://nonexistent.test/x.crl",
	}
	serial := w.crawler.CrawlCRLs(urls)

	w.crawler.Parallelism = 8
	parallel := w.crawler.CrawlCRLs(urls)
	if len(parallel.CRLs) != len(serial.CRLs) || len(parallel.Failures) != len(serial.Failures) {
		t.Fatalf("parallel %d/%d vs serial %d/%d",
			len(parallel.CRLs), len(parallel.Failures), len(serial.CRLs), len(serial.Failures))
	}
	for u, c := range serial.CRLs {
		p, ok := parallel.CRLs[u]
		if !ok || len(p.Entries) != len(c.Entries) {
			t.Errorf("parallel crawl differs at %s", u)
		}
	}
	if parallel.Bytes == 0 {
		t.Error("no bytes accounted in parallel crawl")
	}
}

func TestParseCacheHitsAcrossCrawls(t *testing.T) {
	w := newWorld(t)
	rec := w.issue(t)
	w.clock.Advance(time.Hour)
	if err := w.authority.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	urls := []string{w.authority.CRLURL(0), w.authority.CRLURL(1)}
	first := w.crawler.CrawlCRLs(urls)
	if w.crawler.ParseCacheHits != 0 {
		t.Fatalf("cold crawl hit the cache %d times", w.crawler.ParseCacheHits)
	}
	second := w.crawler.CrawlCRLs(urls)
	if w.crawler.ParseCacheHits != 2 {
		t.Fatalf("warm crawl: %d cache hits, want 2", w.crawler.ParseCacheHits)
	}
	// Pointer identity across snapshots is part of the cache contract:
	// revdb's delta ingestion keys on it.
	for _, u := range urls {
		if first.CRLs[u] != second.CRLs[u] {
			t.Errorf("%s: unchanged body re-parsed to a new object", u)
		}
	}

	// A content change on one shard invalidates only that shard. Advance
	// past the CRL validity window so the CA's handler re-signs; the
	// unchanged shard still reuses its previous DER (ReuseUnchangedCRL)
	// and stays a parse-cache hit.
	rec2 := w.issue(t)
	w.clock.Advance(25 * time.Hour)
	if err := w.authority.Revoke(rec2.Serial, w.clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	third := w.crawler.CrawlCRLs(urls)
	if w.crawler.ParseCacheHits != 3 {
		t.Errorf("after one shard changed: %d cache hits, want 3", w.crawler.ParseCacheHits)
	}
	if third.CRLs[rec2.CRLURL] == second.CRLs[rec2.CRLURL] {
		t.Error("changed shard served the stale parsed CRL")
	}
	if _, ok := third.CRLs[rec2.CRLURL].LookupSerial(rec2.Serial.Bytes()); !ok {
		t.Error("new revocation missing after cache invalidation")
	}
}

func TestCheckOCSPOnlyParallelPreservesOrder(t *testing.T) {
	w := newWorld(t)
	var targets []OCSPTarget
	var revoked []bool
	for i := 0; i < 16; i++ {
		rec := w.issue(t)
		targets = append(targets, OCSPTarget{
			ResponderURL: "http://ocsp.crawlca.test/ocsp",
			Issuer:       w.authority.Certificate(),
			Serial:       rec.Serial,
		})
		revoked = append(revoked, i%3 == 0)
	}
	w.clock.Advance(time.Hour)
	for i, rec := range targets {
		if revoked[i] {
			if err := w.authority.Revoke(rec.Serial, w.clock.Now(), crl.ReasonUnspecified); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One unreachable responder in the middle of the batch.
	targets = append(targets[:8:8], append([]OCSPTarget{{
		ResponderURL: "http://down.test/ocsp",
		Issuer:       w.authority.Certificate(),
		Serial:       targets[0].Serial,
	}}, targets[8:]...)...)
	revoked = append(revoked[:8:8], append([]bool{false}, revoked[8:]...)...)

	w.crawler.Parallelism = 8
	results := w.crawler.CheckOCSPOnly(targets)
	if len(results) != len(targets) {
		t.Fatalf("results = %d, want %d", len(results), len(targets))
	}
	for i, res := range results {
		if res.Target.Serial.Cmp(targets[i].Serial) != 0 || res.Target.ResponderURL != targets[i].ResponderURL {
			t.Fatalf("result %d out of order: got %v", i, res.Target)
		}
		if targets[i].ResponderURL == "http://down.test/ocsp" {
			if res.Err == nil {
				t.Errorf("result %d: unreachable responder did not error", i)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("result %d: %v", i, res.Err)
			continue
		}
		want := ocsp.StatusGood
		if revoked[i] {
			want = ocsp.StatusRevoked
		}
		if res.Response.Status != want {
			t.Errorf("result %d: status %v, want %v", i, res.Response.Status, want)
		}
	}
}

// BenchmarkCrawlCRLsWarm measures the steady-state daily crawl: every CRL
// body is unchanged from the previous day, so each fetch is a parse-cache
// hit and the CA serves its cached DER encoding.
func BenchmarkCrawlCRLsWarm(b *testing.B) {
	w := newWorld(b)
	for i := 0; i < 200; i++ {
		rec := w.issue(b)
		if i%2 == 0 {
			if err := w.authority.Revoke(rec.Serial, w.clock.Now().Add(time.Minute), crl.ReasonUnspecified); err != nil {
				b.Fatal(err)
			}
		}
	}
	w.clock.Advance(time.Hour)
	urls := []string{w.authority.CRLURL(0), w.authority.CRLURL(1)}
	w.crawler.CrawlCRLs(urls) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := w.crawler.CrawlCRLs(urls)
		if len(snap.Failures) != 0 {
			b.Fatalf("failures: %v", snap.Failures)
		}
	}
}

// BenchmarkCrawlCRLsCold measures the same crawl with the parse cache
// disabled by clearing it each iteration: every body is re-parsed and
// re-verified.
func BenchmarkCrawlCRLsCold(b *testing.B) {
	w := newWorld(b)
	for i := 0; i < 200; i++ {
		rec := w.issue(b)
		if i%2 == 0 {
			if err := w.authority.Revoke(rec.Serial, w.clock.Now().Add(time.Minute), crl.ReasonUnspecified); err != nil {
				b.Fatal(err)
			}
		}
	}
	w.clock.Advance(time.Hour)
	urls := []string{w.authority.CRLURL(0), w.authority.CRLURL(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.crawler.parseCache = nil
		snap := w.crawler.CrawlCRLs(urls)
		if len(snap.Failures) != 0 {
			b.Fatalf("failures: %v", snap.Failures)
		}
	}
}

// TestCheckOCSPOnlyBatched: with OCSPBatchSize set, targets sharing a
// responder+issuer ride in multi-certificate requests, results still map
// back by input index, and the wire sees ceil(n/size) requests.
func TestCheckOCSPOnlyBatched(t *testing.T) {
	w := newWorld(t)
	var targets []OCSPTarget
	var revoked []bool
	for i := 0; i < 5; i++ {
		rec := w.issue(t)
		targets = append(targets, OCSPTarget{
			ResponderURL: "http://ocsp.crawlca.test/ocsp",
			Issuer:       w.authority.Certificate(),
			Serial:       rec.Serial,
		})
		revoked = append(revoked, i%2 == 1)
	}
	w.clock.Advance(time.Hour)
	for i := range targets {
		if revoked[i] {
			if err := w.authority.Revoke(targets[i].Serial, w.clock.Now(), crl.ReasonSuperseded); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.net.ResetStats()
	w.crawler.OCSPBatchSize = 2
	results := w.crawler.CheckOCSPOnly(targets)
	if got := w.net.TotalStats().Requests; got != 3 {
		t.Errorf("wire requests = %d, want 3 (batches of 2,2,1)", got)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
		if res.Target.Serial.Cmp(targets[i].Serial) != 0 {
			t.Fatalf("result %d out of order", i)
		}
		want := ocsp.StatusGood
		if revoked[i] {
			want = ocsp.StatusRevoked
		}
		if res.Response.Status != want {
			t.Errorf("result %d: status %v, want %v", i, res.Response.Status, want)
		}
	}
}

// TestCheckOCSPOnlyBatchedParallel runs the batched path through the
// worker pool with mixed responders, asserting order is preserved and a
// batch-level failure reaches every member of the failed batch only.
func TestCheckOCSPOnlyBatchedParallel(t *testing.T) {
	w := newWorld(t)
	var targets []OCSPTarget
	for i := 0; i < 9; i++ {
		rec := w.issue(t)
		url := "http://ocsp.crawlca.test/ocsp"
		if i%4 == 3 {
			url = "http://down.test/ocsp"
		}
		targets = append(targets, OCSPTarget{
			ResponderURL: url,
			Issuer:       w.authority.Certificate(),
			Serial:       rec.Serial,
		})
	}
	w.crawler.OCSPBatchSize = 3
	w.crawler.Parallelism = 4
	results := w.crawler.CheckOCSPOnly(targets)
	for i, res := range results {
		if res.Target.Serial.Cmp(targets[i].Serial) != 0 {
			t.Fatalf("result %d out of order", i)
		}
		if targets[i].ResponderURL == "http://down.test/ocsp" {
			if res.Err == nil {
				t.Errorf("result %d: expected batch error for dead responder", i)
			}
		} else if res.Err != nil {
			t.Errorf("result %d: %v", i, res.Err)
		}
	}
}

func TestOCSPBatchesGrouping(t *testing.T) {
	w := newWorld(t)
	issuer := w.authority.Certificate()
	mk := func(url string, serial int64) OCSPTarget {
		return OCSPTarget{ResponderURL: url, Issuer: issuer, Serial: big.NewInt(serial)}
	}
	targets := []OCSPTarget{
		mk("http://a/ocsp", 1), // batch 0
		mk("http://b/ocsp", 2), // batch 1
		mk("http://a/ocsp", 3), // batch 0 (fills it at size 2)
		mk("http://a/ocsp", 4), // batch 2 (a's first batch is full)
		mk("http://b/ocsp", 5), // batch 1
	}
	c := &Crawler{OCSPBatchSize: 2}
	got := c.ocspBatches(targets)
	want := [][]int{{0, 2}, {1, 4}, {3}}
	if len(got) != len(want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("batch %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	// Size 0/1 degenerates to one batch per target.
	c.OCSPBatchSize = 0
	if got := c.ocspBatches(targets); len(got) != len(targets) {
		t.Fatalf("unbatched: %v", got)
	}
}
