package revdb

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/simtime"
)

func snap(day time.Time, url string, entries ...crl.Entry) *crawler.Snapshot {
	return &crawler.Snapshot{
		Day:  day,
		CRLs: map[string]*crl.CRL{url: {Entries: entries}},
	}
}

func TestIngestTracksFirstAndLastSeen(t *testing.T) {
	db := New()
	d0 := simtime.CrawlStart
	url := "http://crl.test/0.crl"
	revokedAt := d0.Add(-12 * time.Hour)

	added := db.IngestSnapshot(snap(d0, url, crl.Entry{Serial: big.NewInt(5).Bytes(), RevokedAt: revokedAt, Reason: crl.ReasonKeyCompromise}))
	if added != 1 || db.Size() != 1 {
		t.Fatalf("added=%d size=%d", added, db.Size())
	}
	// Second day: same entry plus a new one.
	d1 := d0.AddDate(0, 0, 1)
	added = db.IngestSnapshot(snap(d1, url,
		crl.Entry{Serial: big.NewInt(5).Bytes(), RevokedAt: revokedAt, Reason: crl.ReasonKeyCompromise},
		crl.Entry{Serial: big.NewInt(6).Bytes(), RevokedAt: d1, Reason: crl.ReasonAbsent},
	))
	if added != 1 || db.Size() != 2 {
		t.Fatalf("second ingest: added=%d size=%d", added, db.Size())
	}
	e, ok := db.Lookup(url, big.NewInt(5))
	if !ok {
		t.Fatal("lookup failed")
	}
	if !e.FirstSeen.Equal(d0) || !e.LastSeen.Equal(d1) {
		t.Errorf("first/last = %v / %v", e.FirstSeen, e.LastSeen)
	}
	if e.Reason != crl.ReasonKeyCompromise {
		t.Errorf("reason = %v", e.Reason)
	}
}

func TestRevokedAsOfVsObservedBy(t *testing.T) {
	db := New()
	url := "http://crl.test/0.crl"
	revokedAt := simtime.Date(2014, time.September, 1)
	firstSeen := simtime.CrawlStart // October 2
	db.IngestSnapshot(snap(firstSeen, url, crl.Entry{Serial: big.NewInt(9).Bytes(), RevokedAt: revokedAt}))

	// Revoked in September, but a client could only observe it from
	// October 2's crawl.
	sep15 := simtime.Date(2014, time.September, 15)
	if !db.RevokedAsOf(url, big.NewInt(9), sep15) {
		t.Error("RevokedAsOf should use the revocation timestamp")
	}
	if db.ObservedBy(url, big.NewInt(9), sep15) {
		t.Error("ObservedBy should use the crawl timestamp")
	}
	if !db.ObservedBy(url, big.NewInt(9), firstSeen) {
		t.Error("observable on the first crawl day")
	}
	if db.RevokedAsOf(url, big.NewInt(9), revokedAt.Add(-time.Hour)) {
		t.Error("not yet revoked before the revocation time")
	}
	if db.RevokedAsOf(url, big.NewInt(10), sep15) {
		t.Error("unknown serial reported revoked")
	}
	// Same serial on a different CRL is a different entry.
	if db.RevokedAsOf("http://other.test/0.crl", big.NewInt(9), sep15) {
		t.Error("serial matched across CRL URLs")
	}
}

func TestDailyAdditionsAndGrouping(t *testing.T) {
	db := New()
	url1, url2 := "http://crl.test/0.crl", "http://crl.test/1.crl"
	d0 := simtime.CrawlStart
	db.IngestSnapshot(snap(d0, url1,
		crl.Entry{Serial: big.NewInt(1).Bytes(), RevokedAt: d0},
		crl.Entry{Serial: big.NewInt(2).Bytes(), RevokedAt: d0},
	))
	db.IngestSnapshot(snap(d0.AddDate(0, 0, 1), url2, crl.Entry{Serial: big.NewInt(3).Bytes(), RevokedAt: d0}))

	daily := db.DailyAdditions()
	if daily[d0] != 2 || daily[d0.AddDate(0, 0, 1)] != 1 {
		t.Errorf("daily additions = %v", daily)
	}
	byURL := db.EntriesByURL()
	if len(byURL[url1]) != 2 || len(byURL[url2]) != 1 {
		t.Errorf("by URL: %d / %d", len(byURL[url1]), len(byURL[url2]))
	}
	if len(db.Entries()) != 3 {
		t.Errorf("entries = %d", len(db.Entries()))
	}
}

func TestIngestUnchangedCRLFastPath(t *testing.T) {
	db := New()
	d0 := simtime.CrawlStart
	url := "http://crl.test/0.crl"
	c := &crl.CRL{Entries: []crl.Entry{
		{Serial: big.NewInt(5).Bytes(), RevokedAt: d0.Add(-time.Hour), Reason: crl.ReasonKeyCompromise},
	}}
	if added := db.IngestSnapshot(&crawler.Snapshot{Day: d0, CRLs: map[string]*crl.CRL{url: c}}); added != 1 {
		t.Fatalf("added = %d", added)
	}
	// The crawler's parse cache re-delivers the identical object for an
	// unchanged body; LastSeen must still advance.
	d1, d2 := d0.AddDate(0, 0, 1), d0.AddDate(0, 0, 2)
	for _, day := range []time.Time{d1, d2} {
		if added := db.IngestSnapshot(&crawler.Snapshot{Day: day, CRLs: map[string]*crl.CRL{url: c}}); added != 0 {
			t.Fatalf("unchanged ingest on %v added %d", day, added)
		}
	}
	e, ok := db.Lookup(url, big.NewInt(5))
	if !ok {
		t.Fatal("lookup failed")
	}
	if !e.FirstSeen.Equal(d0) || !e.LastSeen.Equal(d2) {
		t.Errorf("first/last = %v / %v, want %v / %v", e.FirstSeen, e.LastSeen, d0, d2)
	}

	// A new CRL version that drops the entry: the dropped entry keeps the
	// LastSeen from the final day it was actually present.
	d3 := d0.AddDate(0, 0, 3)
	c2 := &crl.CRL{Entries: []crl.Entry{
		{Serial: big.NewInt(6).Bytes(), RevokedAt: d3, Reason: crl.ReasonAbsent},
	}}
	if added := db.IngestSnapshot(&crawler.Snapshot{Day: d3, CRLs: map[string]*crl.CRL{url: c2}}); added != 1 {
		t.Fatalf("changed ingest added %d", added)
	}
	e, _ = db.Lookup(url, big.NewInt(5))
	if !e.LastSeen.Equal(d2) {
		t.Errorf("dropped entry LastSeen = %v, want %v", e.LastSeen, d2)
	}
	e6, ok := db.Lookup(url, big.NewInt(6))
	if !ok || !e6.FirstSeen.Equal(d3) {
		t.Errorf("new entry first seen = %+v", e6)
	}
}

// benchSnapshot builds one crawl day covering nURLs CRLs of nEntries each.
func benchSnapshot(day time.Time, nURLs, nEntries int) *crawler.Snapshot {
	snap := &crawler.Snapshot{Day: day, CRLs: make(map[string]*crl.CRL, nURLs)}
	for u := 0; u < nURLs; u++ {
		entries := make([]crl.Entry, nEntries)
		for i := range entries {
			entries[i] = crl.Entry{
				Serial:    big.NewInt(int64(u*nEntries + i + 1)).Bytes(),
				RevokedAt: day.Add(-time.Hour),
				Reason:    crl.ReasonUnspecified,
			}
		}
		snap.CRLs[fmt.Sprintf("http://crl.test/%d.crl", u)] = &crl.CRL{Entries: entries}
	}
	return snap
}

// BenchmarkIngestSnapshotUnchanged measures the steady-state daily ingest:
// every CRL object is identical to the previous day's (the parse-cache
// contract), exercising the O(1)-per-URL delta path.
func BenchmarkIngestSnapshotUnchanged(b *testing.B) {
	db := New()
	base := benchSnapshot(simtime.CrawlStart, 50, 200)
	db.IngestSnapshot(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.IngestSnapshot(&crawler.Snapshot{
			Day:  simtime.CrawlStart.AddDate(0, 0, i+1),
			CRLs: base.CRLs,
		})
	}
}

// BenchmarkIngestSnapshotChanged measures ingest when every CRL is a new
// object each day (no delta reuse), as after cold parses.
func BenchmarkIngestSnapshotChanged(b *testing.B) {
	db := New()
	db.IngestSnapshot(benchSnapshot(simtime.CrawlStart, 50, 200))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.IngestSnapshot(benchSnapshot(simtime.CrawlStart.AddDate(0, 0, i+1), 50, 200))
	}
}

// TestIngestResignedAllocs gates the ingest of a re-signed CRL whose
// entries are unchanged: a new *crl.CRL every day, so the store walks
// every entry, and the interned per-URL serial index makes that walk
// allocation-free.
func TestIngestResignedAllocs(t *testing.T) {
	// The recorded 4 per ingest (the day's snapshot map and CRL
	// included), times two, plus eight.
	const maxAllocs = 4*2 + 8
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const url = "http://crl.test/resigned.crl"
	day := simtime.CrawlStart
	entries := make([]crl.Entry, 5000)
	for i := range entries {
		entries[i] = crl.Entry{Serial: big.NewInt(int64(i)*2654435761 + 1000003).Bytes(),
			RevokedAt: day.Add(-time.Duration(i%72) * time.Hour), Reason: crl.Reason(i%4 - 1)}
	}
	db := New()
	db.IngestSnapshot(snap(day, url, entries...))
	allocs := testing.AllocsPerRun(20, func() {
		day = day.AddDate(0, 0, 1)
		if added := db.IngestSnapshot(snap(day, url, entries...)); added != 0 {
			t.Fatalf("re-signed ingest added %d entries", added)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("ingesting %d unchanged entries allocated %.0f times, want <= %d", len(entries), allocs, maxAllocs)
	}
}
