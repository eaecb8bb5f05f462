// Package revdb maintains the longitudinal revocation database the study
// derives from its daily CRL crawls: for every (CRL URL, serial) pair it
// keeps the revocation time, reason, and — crucially for the
// vulnerability-window analysis of §7.3 — the first crawl day at which the
// revocation was actually observable by a client.
package revdb

import (
	"math/big"
	"sort"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
)

// Entry is one revocation known to the database.
type Entry struct {
	CRLURL    string
	Serial    *big.Int
	RevokedAt time.Time
	Reason    crl.Reason
	// FirstSeen is the first crawl day whose CRL contained the entry.
	FirstSeen time.Time
	// LastSeen is the most recent crawl day whose CRL contained it; CAs
	// drop entries once certificates expire.
	LastSeen time.Time
}

// urlState tracks one CRL URL's most recently ingested version, enabling
// the delta fast path: daily crawls mostly re-deliver unchanged CRLs
// (the crawler's parse cache returns the identical *crl.CRL for an
// unchanged body), and those cost O(1) instead of an entry walk. It also
// owns the URL's serial index: keying entries per URL by the compact
// serial bytes — interned once, on first sight, when the map insert copies
// the key — replaces the url+"\x00"+serial string the old flat map built
// on every single lookup.
type urlState struct {
	// last is the CRL object most recently ingested for this URL.
	last *crl.CRL
	// bySerial indexes this URL's entries by compact serial magnitude.
	// Lookups with a []byte key compile to zero-allocation map access.
	bySerial map[string]*Entry
	// present are the database entries contained in last, in CRL order.
	present []*Entry
	// pending, when non-zero, is a LastSeen day not yet written to the
	// present entries; it is flushed lazily on change or read.
	pending time.Time
}

// DB is the revocation database. The zero value is unusable; use New.
type DB struct {
	mu    sync.Mutex
	order []*Entry
	byURL map[string]*urlState
	// dirty reports whether any urlState holds an unflushed LastSeen.
	dirty bool
}

// New returns an empty database.
func New() *DB {
	return &DB{
		byURL: make(map[string]*urlState),
	}
}

// flushLocked writes every pending LastSeen day through to the entries.
func (db *DB) flushLocked() {
	if !db.dirty {
		return
	}
	for _, st := range db.byURL {
		if st.pending.IsZero() {
			continue
		}
		for _, e := range st.present {
			e.LastSeen = st.pending
		}
		st.pending = time.Time{}
	}
	db.dirty = false
}

// IngestSnapshot merges one crawl day into the database and returns how
// many previously unseen revocations it contained (the "CRL Entries" line
// of Figure 9). A CRL identical (same object) to the URL's previously
// ingested version is recorded in O(1); a re-signed CRL with unchanged
// entries walks the compact entries without allocating.
func (db *DB) IngestSnapshot(snap *crawler.Snapshot) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Iterate URLs in sorted order so first-seen entry order — and with
	// it every order-sensitive read — is independent of map iteration.
	urls := make([]string, 0, len(snap.CRLs))
	for url := range snap.CRLs {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	added := 0
	for _, url := range urls {
		c := snap.CRLs[url]
		st := db.byURL[url]
		if st == nil {
			st = &urlState{bySerial: make(map[string]*Entry)}
			db.byURL[url] = st
		}
		if st.last == c {
			// Unchanged since the last crawl of this URL: defer the
			// LastSeen updates until something actually reads them.
			st.pending = snap.Day
			db.dirty = true
			continue
		}
		if !st.pending.IsZero() {
			// Entries dropped by the new version must still record the
			// last day they were observed.
			for _, e := range st.present {
				e.LastSeen = st.pending
			}
			st.pending = time.Time{}
		}
		if cap(st.present) < c.NumEntries() {
			st.present = make([]*Entry, 0, c.NumEntries())
		} else {
			st.present = st.present[:0]
		}
		for _, e := range c.Entries {
			known, ok := st.bySerial[string(e.Serial)]
			if !ok {
				known = &Entry{
					CRLURL:    url,
					Serial:    e.SerialBig(),
					RevokedAt: e.RevokedAt,
					Reason:    e.Reason,
					FirstSeen: snap.Day,
				}
				st.bySerial[string(e.Serial)] = known
				db.order = append(db.order, known)
				added++
			}
			known.LastSeen = snap.Day
			st.present = append(st.present, known)
		}
		st.last = c
		st.pending = time.Time{}
	}
	return added
}

// lookupLocked resolves (crlURL, compact serial) without allocating.
func (db *DB) lookupLocked(crlURL string, serial []byte) (*Entry, bool) {
	st := db.byURL[crlURL]
	if st == nil {
		return nil, false
	}
	e, ok := st.bySerial[string(serial)]
	return e, ok
}

// Lookup returns the entry for (crlURL, serial), if known.
func (db *DB) Lookup(crlURL string, serial *big.Int) (*Entry, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.flushLocked()
	return db.lookupLocked(crlURL, serial.Bytes())
}

// Size returns the total number of known revocations.
func (db *DB) Size() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.order)
}

// Entries returns all revocations in first-seen order. The slice is a
// copy the caller owns, but the *Entry values are the database's own,
// live entries: a later IngestSnapshot mutates their LastSeen field in
// place (and only that field — everything else is immutable after
// creation). Reading the immutable fields is therefore safe concurrently
// with ingests; reading LastSeen is not. Use LookupMeta for a detached
// copy.
func (db *DB) Entries() []*Entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.flushLocked()
	out := make([]*Entry, len(db.order))
	copy(out, db.order)
	return out
}

// DailyAdditions buckets first-seen days and returns, for each day present,
// the number of new revocations first observed that day.
func (db *DB) DailyAdditions() map[time.Time]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	// FirstSeen is immutable, but flush anyway so every reader observes
	// the same flush-consistent state — the Store contract makes
	// flush-before-read uniform rather than per-field.
	db.flushLocked()
	out := make(map[time.Time]int)
	for _, e := range db.order {
		day := e.FirstSeen.Truncate(24 * time.Hour)
		out[day]++
	}
	return out
}
