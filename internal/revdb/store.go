package revdb

import (
	"hash/fnv"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
)

// Meta is the value-typed view of one revocation's mutable and immutable
// metadata. Unlike *Entry it is a detached copy: reading a Meta is always
// safe concurrently with later ingests, and a disk-backed store can fill
// one straight from an mmap'd segment without allocating.
type Meta struct {
	RevokedAt time.Time
	Reason    crl.Reason
	// FirstSeen is the first crawl day whose CRL contained the entry.
	FirstSeen time.Time
	// LastSeen is the most recent crawl day whose CRL contained it.
	LastSeen time.Time
}

// Store is the persistence contract behind the revocation database. Two
// implementations exist: the in-memory *DB (the seed implementation, and
// still the default) and the disk-backed segdb.Store, which keeps the
// revocations in append-only segment files with mmap'd reads.
//
// Reads are flush-consistent: every read method observes all LastSeen
// updates implied by earlier IngestSnapshot calls, including the lazily
// deferred updates of the unchanged-CRL fast path.
//
// The *Entry values VisitEntries hands out may be live (the in-memory DB
// passes its own entries, whose LastSeen field a later ingest mutates in
// place) or reused decoded copies (a disk store decodes them from
// segments). Callers must not mutate or retain them — use LookupMeta for
// a stable snapshot of one entry.
type Store interface {
	// IngestSnapshot merges one crawl day and returns how many
	// previously unseen revocations it contained.
	IngestSnapshot(snap *crawler.Snapshot) int
	// LookupMeta returns a detached copy of the entry's metadata, keyed
	// by CRL URL and compact serial magnitude (what crl.Entry.Serial
	// holds). Implementations keep the warm path allocation-free.
	LookupMeta(crlURL string, serial []byte) (Meta, bool)
	// Size returns the total number of known revocations.
	Size() int
	// VisitEntries calls fn for each revocation until fn returns false.
	// Visit order is unspecified, and implementations may reuse the
	// *Entry between calls — copy what you keep.
	VisitEntries(fn func(e *Entry) bool)
	// DailyAdditions buckets first-seen days and returns, for each day
	// present, the number of new revocations first observed that day.
	DailyAdditions() map[time.Time]int
	// Close releases any resources held by the store (files, mappings).
	// The in-memory DB's Close is a no-op. Reads and writes after Close
	// are undefined.
	Close() error
}

var _ Store = (*DB)(nil)

// LookupMeta implements Store. It is Lookup keyed by the compact serial
// magnitude, returning a detached copy of the entry's fields.
func (db *DB) LookupMeta(crlURL string, serial []byte) (Meta, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.flushLocked()
	e, ok := db.lookupLocked(crlURL, serial)
	if !ok {
		return Meta{}, false
	}
	return Meta{RevokedAt: e.RevokedAt, Reason: e.Reason, FirstSeen: e.FirstSeen, LastSeen: e.LastSeen}, true
}

// VisitEntries implements Store: fn sees the database's live entries in
// first-seen order. Do not mutate them or retain them past the call
// without copying.
func (db *DB) VisitEntries(fn func(e *Entry) bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.flushLocked()
	for _, e := range db.order {
		if !fn(e) {
			return
		}
	}
}

// Close implements Store; the in-memory database holds no resources.
func (db *DB) Close() error { return nil }

// XORDigest fingerprints a store's full logical content — every entry's
// (CRL URL, serial, revocation time, reason, first seen, last seen) — as
// an order-independent XOR of per-entry FNV-64a hashes. Two stores hold
// identical revocation knowledge iff their digests match, regardless of
// backend or iteration order; the crash-recovery tests assert a store
// replayed from disk reaches the digest of one that never crashed.
func XORDigest(s Store) uint64 {
	var digest uint64
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	s.VisitEntries(func(e *Entry) bool {
		h.Reset()
		h.Write([]byte(e.CRLURL))
		h.Write([]byte{0})
		h.Write(e.Serial.Bytes())
		writeInt(e.RevokedAt.UnixNano())
		writeInt(int64(e.Reason))
		writeInt(e.FirstSeen.UnixNano())
		writeInt(e.LastSeen.UnixNano())
		digest ^= h.Sum64()
		return true
	})
	return digest
}
