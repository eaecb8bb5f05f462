package revdb

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/simtime"
)

// TestEntriesSharingSemantics pins the documented contract: the slice
// returned by Entries is the caller's copy, but the *Entry values are
// the database's live entries — a later ingest mutates LastSeen in
// place, and LookupMeta is the way to get a detached snapshot.
func TestEntriesSharingSemantics(t *testing.T) {
	db := New()
	url := "http://crl.test/0.crl"
	d0 := simtime.CrawlStart
	c := &crl.CRL{Entries: []crl.Entry{{Serial: big.NewInt(5).Bytes(), RevokedAt: d0.Add(-time.Hour)}}}
	db.IngestSnapshot(&crawler.Snapshot{Day: d0, CRLs: map[string]*crl.CRL{url: c}})

	got := db.Entries()
	if len(got) != 1 || !got[0].LastSeen.Equal(d0) {
		t.Fatalf("entries = %+v", got)
	}
	meta, _ := db.LookupMeta(url, big.NewInt(5).Bytes())

	// The slice header is a copy: growing or clobbering it cannot touch
	// the database.
	got = append(got[:0], nil)
	if db.Entries()[0] == nil {
		t.Fatal("mutating the returned slice reached the database")
	}
	got = db.Entries()

	// The pointed-to entries are live: the next crawl day advances
	// LastSeen inside the value the caller already holds.
	d1 := d0.AddDate(0, 0, 1)
	db.IngestSnapshot(&crawler.Snapshot{Day: d1, CRLs: map[string]*crl.CRL{url: c}})
	// The fast path defers the write; any entry-reading method (here
	// Entries itself) flushes it through.
	if len(db.Entries()) != 1 {
		t.Fatal("size changed")
	}
	if !got[0].LastSeen.Equal(d1) {
		t.Fatalf("live entry not updated: LastSeen = %v, want %v", got[0].LastSeen, d1)
	}
	// The Meta taken before the second ingest is a detached copy and
	// still shows the old day.
	if !meta.LastSeen.Equal(d0) {
		t.Fatalf("detached meta mutated: LastSeen = %v, want %v", meta.LastSeen, d0)
	}

	var visited *Entry
	db.VisitEntries(func(e *Entry) bool { visited = e; return false })
	if visited != got[0] {
		t.Fatal("VisitEntries should hand out the same live entries")
	}
}

// TestDailyAdditionsFlushes: DailyAdditions participates in the uniform
// flush-before-read contract — after it runs, pending LastSeen days from
// the unchanged-CRL fast path are visible on previously returned live
// entries, without any other read in between.
func TestDailyAdditionsFlushes(t *testing.T) {
	db := New()
	url := "http://crl.test/0.crl"
	d0 := simtime.CrawlStart
	c := &crl.CRL{Entries: []crl.Entry{{Serial: big.NewInt(5).Bytes(), RevokedAt: d0.Add(-time.Hour)}}}
	db.IngestSnapshot(&crawler.Snapshot{Day: d0, CRLs: map[string]*crl.CRL{url: c}})
	e := db.Entries()[0]

	d1 := d0.AddDate(0, 0, 1)
	db.IngestSnapshot(&crawler.Snapshot{Day: d1, CRLs: map[string]*crl.CRL{url: c}}) // same pointer: deferred

	adds := db.DailyAdditions()
	if adds[d0.Truncate(24*time.Hour)] != 1 || len(adds) != 1 {
		t.Fatalf("daily additions = %v", adds)
	}
	if !e.LastSeen.Equal(d1) {
		t.Fatalf("DailyAdditions did not flush: LastSeen = %v, want %v", e.LastSeen, d1)
	}
}

// TestConcurrentIngestAndReaders runs IngestSnapshot against concurrent
// Entries/LookupMeta/Size/DailyAdditions readers. Run under -race (the
// race-hot make target does), this validates the documented sharing
// contract: readers that stay off Entry.LastSeen and stick to immutable
// fields (or detached Metas) are race-free against ongoing ingest.
func TestConcurrentIngestAndReaders(t *testing.T) {
	db := New()
	days := 30
	urls := make([]string, 4)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://crl%d.test/0.crl", i)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					for _, e := range db.Entries() {
						_ = e.CRLURL
						_ = e.Serial
						_ = e.FirstSeen // immutable fields only
					}
				case 1:
					var url string
					var serial []byte
					db.VisitEntries(func(e *Entry) bool {
						url, serial = e.CRLURL, e.Serial.Bytes() // immutable fields only
						return false
					})
					if m, ok := db.LookupMeta(url, serial); ok {
						_ = m.LastSeen // detached copy: always safe
					}
				case 2:
					_ = db.Size()
					_ = db.DailyAdditions()
				}
			}
		}(r)
	}

	for d := 0; d < days; d++ {
		day := simtime.CrawlStart.AddDate(0, 0, d)
		snap := &crawler.Snapshot{Day: day, CRLs: make(map[string]*crl.CRL)}
		for i, url := range urls {
			snap.CRLs[url] = &crl.CRL{Entries: []crl.Entry{
				{Serial: big.NewInt(int64(d*10 + i)).Bytes(), RevokedAt: day.Add(-time.Hour)},
				{Serial: big.NewInt(int64(i + 1)).Bytes(), RevokedAt: simtime.CrawlStart.Add(-time.Hour)},
			}}
		}
		db.IngestSnapshot(snap)
	}
	close(done)
	wg.Wait()

	if db.Size() != days*len(urls)+len(urls) {
		t.Fatalf("size = %d, want %d", db.Size(), days*len(urls)+len(urls))
	}
}

// TestXORDigestOrderIndependence: the digest must not depend on backend
// iteration order, and must move when any field moves.
func TestXORDigestOrderIndependence(t *testing.T) {
	build := func(order []int) *DB {
		db := New()
		d0 := simtime.CrawlStart
		for _, i := range order {
			url := fmt.Sprintf("http://crl%d.test/0.crl", i)
			db.IngestSnapshot(&crawler.Snapshot{Day: d0, CRLs: map[string]*crl.CRL{url: {Entries: []crl.Entry{
				{Serial: big.NewInt(int64(100 + i)).Bytes(), RevokedAt: d0.Add(-time.Hour)},
			}}}})
		}
		return db
	}
	a, b := build([]int{0, 1, 2}), build([]int{2, 0, 1})
	if XORDigest(a) != XORDigest(b) {
		t.Fatal("digest depends on insertion order")
	}
	// Advancing one LastSeen must change the digest.
	d1 := simtime.CrawlStart.AddDate(0, 0, 1)
	a.IngestSnapshot(&crawler.Snapshot{Day: d1, CRLs: map[string]*crl.CRL{"http://crl0.test/0.crl": {Entries: []crl.Entry{
		{Serial: big.NewInt(100).Bytes(), RevokedAt: simtime.CrawlStart.Add(-time.Hour)},
	}}}})
	if XORDigest(a) == XORDigest(b) {
		t.Fatal("digest blind to LastSeen")
	}
}
