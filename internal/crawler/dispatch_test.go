// What the crawl's dispatch and its parse cache may not change: the
// snapshot. Three crawlers at Parallelism 1, 2 and 8 watch one CA whose
// first shard is a hundred times the others, day after day, with and
// without injected faults, and must report the same thing.
package crawler_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/faultnet"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// skewedWorld is one CA with a shard per URL, wired into a simnet fabric.
type skewedWorld struct {
	clock     *simtime.Clock
	net       *simnet.Network
	authority *ca.CA
	urls      []string
	verify    map[string]*x509x.Certificate
	// pool[shard] are issued, unrevoked certificates of that shard.
	pool [][]*ca.Record
}

const skewedShards = 9

// newSkewedWorld issues enough certificates to revoke bigShard entries on
// shard 0 and a hundredth of that on every other shard, some of them
// short-lived so that DropExpiredFromCRL removes entries mid-list while
// the test runs.
func newSkewedWorld(t testing.TB, bigShard int) *skewedWorld {
	t.Helper()
	clock := simtime.NewClock(simtime.CrawlStart)
	authority, err := ca.NewRoot(ca.Config{
		Name:               "SkewCA",
		NumCRLShards:       skewedShards,
		CRLBaseURL:         "http://crl.skewca.test/crl",
		IncludeCRLDP:       true,
		DropExpiredFromCRL: true,
		ReuseUnchangedCRL:  true,
		Clock:              clock.Now,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &skewedWorld{
		clock:     clock,
		net:       simnet.New(),
		authority: authority,
		verify:    make(map[string]*x509x.Certificate),
		pool:      make([][]*ca.Record, skewedShards),
	}
	w.net.Register("crl.skewca.test", authority.Handler())
	for shard := 0; shard < skewedShards; shard++ {
		u := authority.CRLURL(shard)
		w.urls = append(w.urls, u)
		w.verify[u] = authority.Certificate()
	}
	// Shards fill round-robin; every seventh certificate lives three days.
	for i := 0; i < skewedShards*(bigShard+60); i++ {
		life := 365 * 24 * time.Hour
		if i%7 == 0 {
			life = 3 * 24 * time.Hour
		}
		rec := authority.IssueRecord(ca.IssueOptions{CommonName: "h.test", NotBefore: clock.Now(), NotAfter: clock.Now().Add(life)})
		w.pool[rec.Shard] = append(w.pool[rec.Shard], rec)
	}
	clock.Advance(time.Hour)
	w.revoke(t, 0, bigShard)
	for shard := 1; shard < skewedShards; shard++ {
		w.revoke(t, shard, bigShard/100)
	}
	return w
}

// revoke revokes n more certificates of shard.
func (w *skewedWorld) revoke(t testing.TB, shard, n int) {
	t.Helper()
	for _, rec := range w.pool[shard][:n] {
		if err := w.authority.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
			t.Fatal(err)
		}
	}
	w.pool[shard] = w.pool[shard][n:]
}

// describe renders everything a snapshot says, in URL order, CRL bodies
// included, so two snapshots are equal exactly when their descriptions
// are.
func describe(urls []string, snap *crawler.Snapshot) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "day %s bytes %d crls %d stale %d failures %d\n", snap.Day.UTC(), snap.Bytes, len(snap.CRLs), len(snap.Stale), len(snap.Failures))
	sorted := append([]string(nil), urls...)
	sort.Strings(sorted)
	for _, u := range sorted {
		fmt.Fprintf(&b, "%s stale=%t", u, snap.Stale[u])
		if err := snap.Failures[u]; err != nil {
			fmt.Fprintf(&b, " failed: %v", err)
		}
		if c := snap.CRLs[u]; c != nil {
			fmt.Fprintf(&b, " number=%v this=%s entries=%d raw=%x", c.Number, c.ThisUpdate.UTC(), len(c.Entries), c.Raw)
			for _, e := range c.Entries {
				fmt.Fprintf(&b, " %x@%d/%d", e.Serial, e.RevokedAt.Unix(), e.Reason)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDispatchCannotChangeSnapshot: whatever the parallelism, and so
// whatever order the URLs were fetched in and however they were divided
// among workers, every day's snapshot is the serial crawl's, each
// crawler's parse cache keeps pointer identity for the bodies that did
// not change, and the accounting is the same.
func TestDispatchCannotChangeSnapshot(t *testing.T) {
	w := newSkewedWorld(t, 300)
	parallelism := []int{1, 2, 8}
	crawlers := make([]*crawler.Crawler, len(parallelism))
	for i, p := range parallelism {
		crawlers[i] = &crawler.Crawler{Client: w.net.Client(), Now: w.clock.Now, Verify: w.verify, Parallelism: p}
	}
	prev := make([]*crawler.Snapshot, len(crawlers))
	unchanged := 0
	for day := 0; day < 6; day++ {
		// The big list changes every day and one small list on even
		// days; on day two every list drops its three-day certificates;
		// otherwise the small lists stand.
		w.revoke(t, 0, 5)
		if day%2 == 0 {
			w.revoke(t, 1+day/2, 1)
		}
		w.clock.Advance(25 * time.Hour)
		var want string
		for i, cr := range crawlers {
			snap := cr.CrawlCRLs(w.urls)
			if len(snap.Failures) != 0 {
				t.Fatalf("day %d, parallelism %d: %v", day, parallelism[i], snap.Failures)
			}
			if got := describe(w.urls, snap); i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("day %d: parallelism %d snapshot differs from the serial crawl's", day, parallelism[i])
			}
			if prev[i] != nil {
				for _, u := range w.urls {
					if bytes.Equal(prev[i].CRLs[u].Raw, snap.CRLs[u].Raw) {
						unchanged++
						if prev[i].CRLs[u] != snap.CRLs[u] {
							t.Errorf("day %d, parallelism %d: %s unchanged but parsed anew", day, parallelism[i], u)
						}
					}
				}
			}
			prev[i] = snap
		}
	}
	base := crawlers[0].Stats()
	if misses := base.Successes - crawlers[0].ParseCacheHits; unchanged < 3*20 || misses <= skewedShards {
		t.Fatalf("fixture exercised too little: %d unchanged bodies, %d parse-cache misses, stats %+v", unchanged, misses, base)
	}
	for i, cr := range crawlers[1:] {
		if st := cr.Stats(); st != base {
			t.Errorf("parallelism %d stats %+v, serial %+v", parallelism[i+1], st, base)
		}
		if cr.ParseCacheHits != crawlers[0].ParseCacheHits {
			t.Errorf("parallelism %d: %d parse-cache hits, serial %d", parallelism[i+1], cr.ParseCacheHits, crawlers[0].ParseCacheHits)
		}
	}
}

// TestDispatchKeepsPerURLFailures: behind a fault injector (one per
// crawler, same seed: its schedule is a function of URL, day and attempt
// number, and a URL's attempts stay on one worker), the same URLs fail the
// same way on the same days at any parallelism, retries, stale serving
// and corrupted bodies included.
func TestDispatchKeepsPerURLFailures(t *testing.T) {
	w := newSkewedWorld(t, 300)
	parallelism := []int{1, 2, 8}
	crawlers := make([]*crawler.Crawler, len(parallelism))
	for i, p := range parallelism {
		inj := faultnet.New(w.net, faultnet.Config{Seed: 20150401, Now: w.clock.Now,
			ConnErrorProb: 0.15, HTTP500Prob: 0.1, TruncateProb: 0.1, CorruptProb: 0.15})
		crawlers[i] = &crawler.Crawler{Client: inj.Client(), Now: w.clock.Now, Verify: w.verify, Parallelism: p,
			Timeout: 2 * time.Second, Retries: 1, ServeStale: true}
	}
	for day := 0; day < 8; day++ {
		w.revoke(t, 0, 4)
		w.revoke(t, 1+day%(skewedShards-1), 1)
		w.clock.Advance(25 * time.Hour)
		var want string
		for i, cr := range crawlers {
			got := describe(w.urls, cr.CrawlCRLs(w.urls))
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("day %d: parallelism %d snapshot differs from the serial crawl's under faults", day, parallelism[i])
			}
		}
	}
	base := crawlers[0].Stats()
	if base.GaveUp == 0 || base.StaleServed == 0 || base.ParseErrors+base.VerifyErrors == 0 || base.Retries == 0 {
		t.Fatalf("faults never reached the paths under test: %+v", base)
	}
	for i, cr := range crawlers[1:] {
		if st := cr.Stats(); st != base {
			t.Errorf("parallelism %d stats %+v, serial %+v", parallelism[i+1], st, base)
		}
	}
}

// TestParseCacheKeepsUnchangedBodies: a cold crawl parses every body, a
// crawl of the same bodies parses none and hands back the same *crl.CRL,
// and after revocations land only the changed lists are parsed anew.
func TestParseCacheKeepsUnchangedBodies(t *testing.T) {
	w := newSkewedWorld(t, 200)
	cr := &crawler.Crawler{Client: w.net.Client(), Now: w.clock.Now, Verify: w.verify, Parallelism: 2}
	w.clock.Advance(25 * time.Hour)
	cold := cr.CrawlCRLs(w.urls)
	if cr.ParseCacheHits != 0 || len(cold.CRLs) != skewedShards {
		t.Fatalf("cold crawl: %d cache hits, %d CRLs", cr.ParseCacheHits, len(cold.CRLs))
	}
	same := cr.CrawlCRLs(w.urls)
	if cr.ParseCacheHits != skewedShards {
		t.Fatalf("unchanged crawl: %d cache hits, want %d", cr.ParseCacheHits, skewedShards)
	}
	for _, u := range w.urls {
		if same.CRLs[u] != cold.CRLs[u] {
			t.Fatalf("unchanged crawl parsed %s anew", u)
		}
	}
	w.revoke(t, 0, 7)
	w.revoke(t, 3, 1)
	w.clock.Advance(25 * time.Hour)
	snap := cr.CrawlCRLs(w.urls)
	if n := snap.CRLs[w.urls[0]].NumEntries(); n != 207 {
		t.Fatalf("big list has %d entries, want 207", n)
	}
	if want := int64(2*skewedShards - 2); cr.ParseCacheHits != want {
		t.Fatalf("after 7+1 revocations: %d cache hits, want %d", cr.ParseCacheHits, want)
	}
	for i, u := range w.urls {
		if changed := i == 0 || i == 3; (snap.CRLs[u] != cold.CRLs[u]) != changed {
			t.Fatalf("after 7+1 revocations: %s parsed anew %t, want %t", u, !changed, changed)
		}
	}
}
