package segdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/revdb"
	"repro/internal/simtime"
)

// worldGen produces a deterministic multi-day crawl: per URL and day the
// CRL is either byte-identical to yesterday's (same pointer, exercising
// the touch fast path), or a re-signed version that keeps a prefix,
// drops the odd mid-list entry (expiry), and appends new revocations.
type worldGen struct {
	rng  *rand.Rand
	urls []string
	live map[string]*crl.CRL
	next int64
}

func newWorldGen(seed int64, nURLs int) *worldGen {
	g := &worldGen{rng: rand.New(rand.NewSource(seed)), live: make(map[string]*crl.CRL)}
	for i := 0; i < nURLs; i++ {
		g.urls = append(g.urls, fmt.Sprintf("http://crl%02d.test/latest.crl", i))
	}
	return g
}

func (g *worldGen) day(d time.Time) *crawler.Snapshot {
	snap := &crawler.Snapshot{Day: d, CRLs: make(map[string]*crl.CRL)}
	for _, url := range g.urls {
		old := g.live[url]
		if old != nil && g.rng.Intn(3) == 0 {
			snap.CRLs[url] = old
			continue
		}
		var entries []crl.Entry
		if old != nil {
			for i := range old.Entries {
				if g.rng.Intn(25) == 0 {
					continue
				}
				entries = append(entries, old.Entries[i])
			}
		}
		for n := g.rng.Intn(7); n > 0; n-- {
			g.next++
			entries = append(entries, crl.Entry{
				Serial:    big.NewInt(g.next*7919 + 13).Bytes(),
				RevokedAt: d.Add(-time.Duration(g.rng.Intn(72)) * time.Hour),
				Reason:    crl.Reason(g.rng.Intn(6) - 1), // ReasonAbsent included
			})
		}
		c := &crl.CRL{Entries: entries}
		g.live[url] = c
		snap.CRLs[url] = c
	}
	return snap
}

func genDays(seed int64, nURLs, nDays int) []*crawler.Snapshot {
	g := newWorldGen(seed, nURLs)
	days := make([]*crawler.Snapshot, nDays)
	for i := range days {
		days[i] = g.day(simtime.CrawlStart.AddDate(0, 0, i))
	}
	return days
}

func openTest(t *testing.T, dir string, opts *Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// ingestBoth drives the same days into a disk store and the in-memory
// reference, asserting the per-day added counts agree.
func ingestBoth(t *testing.T, s *Store, db *revdb.DB, days []*crawler.Snapshot) {
	t.Helper()
	for i, d := range days {
		dn, mn := s.IngestSnapshot(d), db.IngestSnapshot(d)
		if dn != mn {
			t.Fatalf("day %d: disk added %d, mem added %d", i, dn, mn)
		}
	}
}

func requireSameDigest(t *testing.T, s *Store, db *revdb.DB) {
	t.Helper()
	if ds, dm := revdb.XORDigest(s), revdb.XORDigest(db); ds != dm {
		t.Fatalf("digest mismatch: disk %016x, mem %016x (disk size %d, mem size %d)",
			ds, dm, s.Size(), db.Size())
	}
}

// TestDiskMatchesMemDifferential is the core equivalence check: a
// randomized 40-day crawl, with folds forced mid-run, must leave the
// disk store logically identical to the in-memory DB.
func TestDiskMatchesMemDifferential(t *testing.T) {
	days := genDays(1, 8, 40)
	s := openTest(t, t.TempDir(), &Options{MemtableFlushEntries: 64, SynchronousCompact: true})
	defer s.Close()
	db := revdb.New()
	ingestBoth(t, s, db, days)

	requireSameDigest(t, s, db)
	if s.Size() != db.Size() {
		t.Fatalf("size: disk %d, mem %d", s.Size(), db.Size())
	}
	if s.Stats().Folds == 0 {
		t.Fatal("expected at least one fold with a 64-entry memtable threshold")
	}

	// Entries must agree entry-for-entry, in first-seen order.
	de, me := s.Entries(), db.Entries()
	if len(de) != len(me) {
		t.Fatalf("entries: disk %d, mem %d", len(de), len(me))
	}
	for i := range de {
		if de[i].CRLURL != me[i].CRLURL || de[i].Serial.Cmp(me[i].Serial) != 0 ||
			!de[i].RevokedAt.Equal(me[i].RevokedAt) || de[i].Reason != me[i].Reason ||
			!de[i].FirstSeen.Equal(me[i].FirstSeen) || !de[i].LastSeen.Equal(me[i].LastSeen) {
			t.Fatalf("entry %d differs:\n disk %+v\n mem  %+v", i, de[i], me[i])
		}
	}

	dg, mg := s.EntriesByURL(), db.EntriesByURL()
	if len(dg) != len(mg) {
		t.Fatalf("urls: disk %d, mem %d", len(dg), len(mg))
	}
	for url, group := range mg {
		if len(dg[url]) != len(group) {
			t.Fatalf("url %s: disk %d entries, mem %d", url, len(dg[url]), len(group))
		}
	}

	da, ma := s.DailyAdditions(), db.DailyAdditions()
	if len(da) != len(ma) {
		t.Fatalf("daily additions: disk %d days, mem %d", len(da), len(ma))
	}
	for day, n := range ma {
		if da[day] != n {
			t.Fatalf("daily additions %v: disk %d, mem %d", day, da[day], n)
		}
	}

	// Point lookups and the time-axis predicates agree on every entry.
	for _, e := range me {
		m, ok := s.LookupMeta(e.CRLURL, e.Serial.Bytes())
		if !ok {
			t.Fatalf("disk lookup missed %s %v", e.CRLURL, e.Serial)
		}
		if !m.RevokedAt.Equal(e.RevokedAt) || m.Reason != e.Reason ||
			!m.FirstSeen.Equal(e.FirstSeen) || !m.LastSeen.Equal(e.LastSeen) {
			t.Fatalf("meta differs for %s %v: %+v vs %+v", e.CRLURL, e.Serial, m, e)
		}
		at := e.FirstSeen.Add(time.Hour)
		if s.RevokedAsOf(e.CRLURL, e.Serial, at) != db.RevokedAsOf(e.CRLURL, e.Serial, at) ||
			s.ObservedBy(e.CRLURL, e.Serial, at) != db.ObservedBy(e.CRLURL, e.Serial, at) {
			t.Fatalf("predicates differ for %s %v", e.CRLURL, e.Serial)
		}
	}
	if _, ok := s.LookupMeta("http://crl00.test/latest.crl", big.NewInt(2).Bytes()); ok {
		t.Fatal("lookup invented an entry")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store error: %v", err)
	}
}

// TestReopenPreservesDigest closes and reopens mid-crawl twice — once
// with the corpus split across snapshot and WAL, once WAL-only — and the
// recovered store must continue exactly like the uninterrupted one.
func TestReopenPreservesDigest(t *testing.T) {
	for _, opts := range []*Options{
		{MemtableFlushEntries: 64, SynchronousCompact: true},
		{MemtableFlushEntries: -1}, // WAL-only: no folds at all
	} {
		days := genDays(2, 6, 30)
		dir := t.TempDir()
		s := openTest(t, dir, opts)
		db := revdb.New()
		ingestBoth(t, s, db, days[:17])
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		s = openTest(t, dir, opts)
		requireSameDigest(t, s, db)
		ingestBoth(t, s, db, days[17:])
		requireSameDigest(t, s, db)
		s.Close()
	}
}

// TestReasonAbsentRoundTrips: crl.ReasonAbsent is -1 and the store keeps
// a reason in one unsigned byte, so every read site has to sign-extend.
// The same crawl goes into the in-memory store and a disk store that
// folds, the disk store is reopened (segment records for the folded
// entries, WAL replay into the memtable for the rest), and both must
// agree on the digest (VisitEntries) and on every entry's Reason, from
// Entries, which shares VisitEntries' decode, and from LookupMeta.
func TestReasonAbsentRoundTrips(t *testing.T) {
	days := genDays(4, 6, 12)
	dir := t.TempDir()
	opts := &Options{MemtableFlushEntries: 64, SynchronousCompact: true}
	s := openTest(t, dir, opts)
	db := revdb.New()
	ingestBoth(t, s, db, days)
	requireSameDigest(t, s, db)
	if s.Stats().Folds == 0 {
		t.Fatal("no fold: every entry is still in the memtable")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s = openTest(t, dir, opts)
	defer s.Close()
	requireSameDigest(t, s, db)

	absent := 0
	for _, e := range s.Entries() {
		want, ok := db.LookupMeta(e.CRLURL, e.Serial.Bytes())
		got, _ := s.LookupMeta(e.CRLURL, e.Serial.Bytes())
		if !ok || e.Reason != want.Reason || got.Reason != want.Reason {
			t.Fatalf("%s %x: disk visit %v, disk lookup %v, mem %v", e.CRLURL, e.Serial.Bytes(), e.Reason, got.Reason, want.Reason)
		}
		if e.Reason == crl.ReasonAbsent {
			absent++
		}
	}
	if absent == 0 {
		t.Fatal("the crawl has no reason-less entry")
	}
}

// TestCrashMidIngestRecovers is the headline crash-safety check: the WAL
// is severed mid-record during an ingest (as a kill would), the store is
// reopened, and after re-ingesting from the interrupted day onward it
// must reach the exact digest of a store that never crashed.
func TestCrashMidIngestRecovers(t *testing.T) {
	days := genDays(3, 6, 20)
	dir := t.TempDir()
	opts := &Options{MemtableFlushEntries: -1}
	s := openTest(t, dir, opts)
	db := revdb.New()
	ingestBoth(t, s, db, days[:12])

	// Sever the log a little past its current end: day 12's batch tears
	// partway through, mid-record.
	s.SetCrashAfter(s.WALFileBytes() + 137)
	s.IngestSnapshot(days[12])
	if err := s.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}

	s = openTest(t, dir, opts)
	defer s.Close()
	st := s.Stats()
	if st.SalvagedFiles == 0 || st.QuarantinedBytes == 0 {
		t.Fatalf("expected a salvaged segment, stats %+v", st)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.quarantine")); len(m) == 0 {
		t.Fatal("no quarantine file written")
	}
	// Recovery replays the durable prefix — nothing more. Re-crawling
	// from the interrupted day must converge: surviving entries are
	// recognized, torn ones re-added with the same first-seen day.
	for _, d := range days[12:] {
		s.IngestSnapshot(d)
	}
	for _, d := range days[12:] {
		db.IngestSnapshot(d)
	}
	requireSameDigest(t, s, db)
}

// TestCorruptTruncatedTail truncates the sealed log mid-record; the
// valid prefix must be salvaged and the tail quarantined, never applied.
func TestCorruptTruncatedTail(t *testing.T) {
	days := genDays(4, 4, 8)
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: -1})
	db := revdb.New()
	ingestBoth(t, s, db, days)
	s.Close()

	wal := activeWAL(t, dir)
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, &Options{MemtableFlushEntries: -1})
	defer s.Close()
	st := s.Stats()
	if st.SalvagedFiles != 1 {
		t.Fatalf("salvaged files = %d, want 1 (stats %+v)", st.SalvagedFiles, st)
	}
	if _, err := os.Stat(wal + ".quarantine"); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	// Re-crawling every day converges back to the full corpus.
	for _, d := range days {
		s.IngestSnapshot(d)
	}
	requireSameDigest(t, s, db)
}

// TestCorruptFlippedByte flips one byte in the middle of the log; the
// CRC catches it, replay stops at the damage, and the suffix is
// quarantined rather than applied.
func TestCorruptFlippedByte(t *testing.T) {
	days := genDays(5, 4, 8)
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: -1})
	db := revdb.New()
	ingestBoth(t, s, db, days)
	s.Close()

	wal := activeWAL(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, &Options{MemtableFlushEntries: -1})
	defer s.Close()
	st := s.Stats()
	if st.SalvagedFiles != 1 || st.QuarantinedBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
	if s.Size() >= db.Size() {
		t.Fatalf("flipped byte lost nothing: disk %d, mem %d", s.Size(), db.Size())
	}
	for _, d := range days {
		s.IngestSnapshot(d)
	}
	requireSameDigest(t, s, db)
}

// TestCorruptZeroLengthSegment plants an empty segment file — what a
// crash immediately after rotation leaves — and the store must open
// cleanly, flag it, and lose nothing.
func TestCorruptZeroLengthSegment(t *testing.T) {
	days := genDays(6, 4, 6)
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: -1})
	db := revdb.New()
	ingestBoth(t, s, db, days)
	s.Close()

	if err := os.WriteFile(filepath.Join(dir, walName(99)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, &Options{MemtableFlushEntries: -1})
	defer s.Close()
	st := s.Stats()
	if st.ZeroLengthSegs != 1 {
		t.Fatalf("zero-length segments = %d, want 1", st.ZeroLengthSegs)
	}
	if st.SalvagedFiles != 0 {
		t.Fatalf("empty segment wrongly counted as salvage: %+v", st)
	}
	requireSameDigest(t, s, db)
}

// TestCorruptSnapshotQuarantined flips a byte inside the snapshot
// segment: the footer CRC must reject it at open and set it aside — a
// damaged snapshot is detected, never silently served.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	days := genDays(7, 4, 10)
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: 32, SynchronousCompact: true})
	db := revdb.New()
	ingestBoth(t, s, db, days)
	if s.Stats().Folds == 0 {
		t.Fatal("no fold happened")
	}
	gen := s.SnapshotGen()
	s.Close()

	snapPath := filepath.Join(dir, snapName(gen))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, &Options{MemtableFlushEntries: 32, SynchronousCompact: true})
	defer s.Close()
	if s.Stats().SnapshotsDropped != 1 {
		t.Fatalf("snapshots dropped = %d, want 1", s.Stats().SnapshotsDropped)
	}
	if _, err := os.Stat(snapPath + ".quarantine"); err != nil {
		t.Fatalf("snapshot quarantine: %v", err)
	}
	// The folded data lived only in the quarantined snapshot (its WAL
	// segments were reclaimed), so the store restarts from whatever the
	// surviving WAL holds; a full re-crawl rebuilds the corpus except
	// first-seen days older than the damage.
	if s.SnapshotGen() == gen {
		t.Fatal("damaged snapshot still loaded")
	}
}

// TestTouchPathLastSeen pins the unchanged-CRL fast path: a day where
// the crawler returns the same parsed CRL pointer must advance LastSeen
// through lookups, digests, folds, and reopens.
func TestTouchPathLastSeen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: -1})
	url := "http://crl.test/1.crl"
	d0 := simtime.CrawlStart
	c := &crl.CRL{Entries: []crl.Entry{{Serial: big.NewInt(77).Bytes(), RevokedAt: d0.Add(-time.Hour)}}}
	s.IngestSnapshot(&crawler.Snapshot{Day: d0, CRLs: map[string]*crl.CRL{url: c}})
	d1 := d0.AddDate(0, 0, 1)
	if n := s.IngestSnapshot(&crawler.Snapshot{Day: d1, CRLs: map[string]*crl.CRL{url: c}}); n != 0 {
		t.Fatalf("touch day added %d", n)
	}
	m, ok := s.LookupMeta(url, big.NewInt(77).Bytes())
	if !ok || !m.LastSeen.Equal(d1) || !m.FirstSeen.Equal(d0) {
		t.Fatalf("meta %+v ok=%v", m, ok)
	}
	// The pending day survives a fold and a reopen.
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	s.Close()
	s = openTest(t, dir, &Options{MemtableFlushEntries: -1})
	defer s.Close()
	m, ok = s.LookupMeta(url, big.NewInt(77).Bytes())
	if !ok || !m.LastSeen.Equal(d1) {
		t.Fatalf("after reopen: meta %+v ok=%v", m, ok)
	}
}

// TestSameSerialDistinctURLs: the same serial on two CRLs is two
// entries, exactly as in the in-memory DB.
func TestSameSerialDistinctURLs(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	defer s.Close()
	d := simtime.CrawlStart
	e := crl.Entry{Serial: big.NewInt(5).Bytes(), RevokedAt: d.Add(-time.Hour)}
	s.IngestSnapshot(&crawler.Snapshot{Day: d, CRLs: map[string]*crl.CRL{
		"http://a.test/a.crl": {Entries: []crl.Entry{e}},
		"http://b.test/b.crl": {Entries: []crl.Entry{e}},
	}})
	if s.Size() != 2 {
		t.Fatalf("size = %d, want 2", s.Size())
	}
	if _, ok := s.LookupMeta("http://a.test/a.crl", e.Serial); !ok {
		t.Fatal("missing on a")
	}
	if _, ok := s.LookupMeta("http://c.test/c.crl", e.Serial); ok {
		t.Fatal("present on unknown URL")
	}
}

// TestFoldReclaimsFiles: after a fold, the superseded snapshot and the
// covered WAL segments are gone; one snapshot plus the active log remain.
func TestFoldReclaimsFiles(t *testing.T) {
	days := genDays(8, 4, 20)
	dir := t.TempDir()
	s := openTest(t, dir, &Options{MemtableFlushEntries: 32, SynchronousCompact: true})
	db := revdb.New()
	ingestBoth(t, s, db, days)
	st := s.Stats()
	if st.Folds < 2 {
		t.Fatalf("folds = %d, want >= 2", st.Folds)
	}
	var snaps, wals int
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		switch {
		case strings.HasSuffix(de.Name(), ".seg"):
			snaps++
		case strings.HasSuffix(de.Name(), ".log"):
			wals++
		default:
			t.Fatalf("unexpected file %s", de.Name())
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshot files = %d, want 1", snaps)
	}
	if wals != 1 {
		t.Fatalf("wal files = %d, want 1 (only the active segment)", wals)
	}
	s.Close()

	// And the compacted store still matches the reference.
	s = openTest(t, dir, &Options{MemtableFlushEntries: 32, SynchronousCompact: true})
	defer s.Close()
	requireSameDigest(t, s, db)
}

// TestWarmLookupZeroAllocs pins the headline mmap property: once entries
// sit in a folded snapshot segment, LookupMeta allocates nothing — hit
// or miss, memtable or mapped segment.
func TestWarmLookupZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	days := genDays(9, 4, 15)
	s := openTest(t, t.TempDir(), &Options{MemtableFlushEntries: -1})
	defer s.Close()
	for _, d := range days[:14] {
		s.IngestSnapshot(d)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.IngestSnapshot(days[14]) // leave some entries memtable-resident

	var snapE, memE *revdb.Entry
	base := uint32(s.Stats().SnapshotEntries)
	s.VisitEntries(func(e *revdb.Entry) bool {
		cp := *e
		cp.Serial = new(big.Int).Set(e.Serial)
		if snapE == nil {
			snapE = &cp
		}
		memE = &cp
		return true
	})
	if snapE == nil || base == 0 {
		t.Fatal("fixture produced no snapshot entries")
	}
	for name, e := range map[string]*revdb.Entry{"snapshot": snapE, "memtable": memE} {
		serial := e.Serial.Bytes()
		url := e.CRLURL
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.LookupMeta(url, serial); !ok {
				t.Fatal("lookup missed")
			}
		})
		if allocs != 0 {
			t.Errorf("%s-resident lookup: %.1f allocs/op, want 0", name, allocs)
		}
	}
	missSerial := big.NewInt(2).Bytes()
	if allocs := testing.AllocsPerRun(200, func() {
		s.LookupMeta("http://crl00.test/latest.crl", missSerial)
	}); allocs != 0 {
		t.Errorf("miss lookup: %.1f allocs/op, want 0", allocs)
	}
}

// TestBackgroundFoldUnderIngest exercises the asynchronous compaction
// path (no SynchronousCompact): folds overlap continued ingest and the
// result must still match the reference.
func TestBackgroundFoldUnderIngest(t *testing.T) {
	days := genDays(10, 6, 30)
	s := openTest(t, t.TempDir(), &Options{MemtableFlushEntries: 48})
	defer s.Close()
	db := revdb.New()
	ingestBoth(t, s, db, days)
	s.foldWG.Wait()
	requireSameDigest(t, s, db)
	if s.Stats().Folds == 0 {
		t.Fatal("no background fold ran")
	}
}

// TestWALRotation seals oversized segments and recovery replays the
// whole chain.
func TestWALRotation(t *testing.T) {
	days := genDays(11, 4, 12)
	dir := t.TempDir()
	opts := &Options{MemtableFlushEntries: -1, WALRotateBytes: 1024}
	s := openTest(t, dir, opts)
	db := revdb.New()
	ingestBoth(t, s, db, days)
	s.Close()
	m, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(m) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(m))
	}
	s = openTest(t, dir, opts)
	defer s.Close()
	requireSameDigest(t, s, db)
}

// activeWAL returns the highest-numbered WAL segment in dir.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(m) == 0 {
		t.Fatalf("no wal segments (err %v)", err)
	}
	best := m[0]
	for _, p := range m[1:] {
		if p > best {
			best = p
		}
	}
	return best
}

// appendCrawl generates the ingest-ratio fixture: a fixed URL population
// where each day 1/changeEvery of the shards re-sign with perURL fresh
// revocations appended, and the rest serve yesterday's CRL pointer (the
// crawler's parse cache), so both the touch fast path and the append
// path carry weight.
func appendCrawl(urls, days, changeEvery, perURL int) []*crawler.Snapshot {
	live := make([]*crl.CRL, urls)
	out := make([]*crawler.Snapshot, days)
	var next uint64
	for d := range out {
		day := simtime.CrawlStart.AddDate(0, 0, d)
		snap := &crawler.Snapshot{Day: day, CRLs: make(map[string]*crl.CRL, urls)}
		for u := range live {
			if live[u] == nil || (u+d)%changeEvery == 0 {
				var prev []crl.Entry
				if live[u] != nil {
					prev = live[u].Entries
				}
				entries := append(make([]crl.Entry, 0, len(prev)+perURL), prev...)
				for n := 0; n < perURL; n++ {
					next++
					serial := make([]byte, 8)
					binary.BigEndian.PutUint64(serial, next*0x9E3779B97F4A7C15)
					entries = append(entries, crl.Entry{Serial: serial,
						RevokedAt: day.Add(-time.Duration(next%48) * time.Hour), Reason: crl.Reason(next % 5)})
				}
				live[u] = &crl.CRL{Entries: entries}
			}
			snap.CRLs[fmt.Sprintf("http://crl%03d.bench.test/shard.crl", u)] = live[u]
		}
		out[d] = snap
	}
	return out
}

// TestDiskIngestKeepsPaceWithMem gates the disk store's ingest
// throughput at half the in-memory store's or better, on an identical
// crawl. The two sides alternate in one process and each keeps its best
// of five rounds, so host load shared by both cancels out.
func TestDiskIngestKeepsPaceWithMem(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput ratios are not meaningful under the race detector")
	}
	const minRatio = 0.5
	days := appendCrawl(32, 20, 4, 250)
	ingest := func(s revdb.Store) (entries int, elapsed time.Duration) {
		start := time.Now()
		for _, d := range days {
			entries += s.IngestSnapshot(d)
		}
		return entries, time.Since(start)
	}
	bestMem, bestDisk := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 5; round++ {
		memN, memT := ingest(revdb.New())
		s := openTest(t, t.TempDir(), nil)
		diskN, diskT := ingest(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if memN != diskN || memN == 0 {
			t.Fatalf("mem ingested %d entries, disk %d", memN, diskN)
		}
		bestMem, bestDisk = min(bestMem, memT), min(bestDisk, diskT)
	}
	ratio := bestMem.Seconds() / bestDisk.Seconds()
	t.Logf("disk ingest at %.2fx of mem (mem %v, disk %v)", ratio, bestMem, bestDisk)
	if ratio < minRatio {
		t.Errorf("disk ingest runs at %.2fx of mem (mem %v, disk %v), want >= %.2f", ratio, bestMem, bestDisk, minRatio)
	}
}
