package browser

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

// Store is the pluggable client-side revocation cache consulted by
// Client: CRLs until their nextUpdate and OCSP single responses until
// theirs (§2.2 — clients can cache CRLs, and OCSP responses are typically
// cacheable for days, longer than most CRLs). A Store must be safe for
// concurrent use by many clients; a nil Client.Cache disables caching.
//
// OCSP entries are keyed by (issuer, certificate) rather than a
// pre-computed ocsp.CertID so each implementation can pick its own key
// derivation: the sharded Cache lays the CertID's three parts out from
// the certificates' memoised identity without allocating, while the
// tests' SingleLockCache reproduces the seed's CertID.Key() string path.
type Store interface {
	CRL(url string, now time.Time) (*crl.CRL, bool)
	PutCRL(url string, parsed *crl.CRL)
	OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool)
	PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse)
}

// CRLSource says how a CRL reached the caller of DoCRL.
type CRLSource int

// CRL sources.
const (
	// SourceFetched: this caller ran the fetch itself.
	SourceFetched CRLSource = iota
	// SourceCached: served from a live cache entry.
	SourceCached
	// SourceJoined: another client was already fetching the same URL and
	// this caller waited for that flight instead of duplicating it.
	SourceJoined
)

// crlSingleflighter is implemented by stores that can collapse concurrent
// same-URL CRL fetches into one download+parse. Client type-asserts for
// it, after its own lookup missed, so a store without it (the tests'
// seed-faithful SingleLockCache) keeps the seed's fetch behaviour.
type crlSingleflighter interface {
	fetchCRLOnce(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error)
}

// Cache is the sharded Store used by a fleet of clients sharing one
// revocation cache, the way all tabs (and, via the OS verifier, all
// processes) of one machine share a single CRL/OCSP cache. A lookup
// writes to one shard and to nothing else of the Cache: it takes that
// shard's RLock, reads its map and adds to that shard's own hit/miss
// counters, so clients checking different certificates mostly write
// different cache lines. Reads never delete — an expired entry is reported as a
// miss and left in place (the next Put of its key replaces it) instead
// of being removed under an exclusive lock on the read path. Construct
// with NewCache; one Cache is safe for concurrent use by many clients.
// The zero value and nil are both usable as a disabled cache.
type Cache struct {
	shards []cacheShard
	mask   uint32

	// Counted once per download, never on a hit.
	crlFetches  atomic.Int64
	dedupeJoins atomic.Int64
}

type cacheShard struct {
	mu      sync.RWMutex
	crls    map[string]*crl.CRL
	ocsps   map[string]ocsp.SingleResponse
	flights map[string]*crlFlight

	// Lookup counters of this shard's keys; Stats sums them over shards.
	crlHits    atomic.Int64
	crlMisses  atomic.Int64
	ocspHits   atomic.Int64
	ocspMisses atomic.Int64
	expired    atomic.Int64
}

// crlFlight is one in-progress download+parse of a CRL URL. ready is
// closed once parsed/err are final; joiners block on it, which is what
// collapses N concurrent same-URL fetches into one.
type crlFlight struct {
	ready  chan struct{}
	parsed *crl.CRL
	err    error
}

// NewCache returns an empty cache of 64 lock shards.
func NewCache() *Cache { return newCache(64) }

// newCache returns an empty cache of n lock shards; n must be a power of
// two so the shard index is a mask.
func newCache(n int) *Cache {
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.crls = make(map[string]*crl.CRL)
		sh.ocsps = make(map[string]ocsp.SingleResponse)
		sh.flights = make(map[string]*crlFlight)
	}
	return c
}

// CacheStats counts cache activity since construction.
type CacheStats struct {
	CRLHits    int64
	CRLMisses  int64
	OCSPHits   int64
	OCSPMisses int64
	// Expired counts lookups that found an entry past its validity
	// window (reported as misses; the entry stays resident).
	Expired int64
	// CRLFetches counts fetch closures actually run by DoCRL — the
	// number of network downloads a fleet paid for.
	CRLFetches int64
	// DedupeJoins counts DoCRL callers that waited on another client's
	// in-flight fetch instead of starting their own.
	DedupeJoins int64
}

// Hits returns total lookup hits across both protocols.
func (s CacheStats) Hits() int64 { return s.CRLHits + s.OCSPHits }

// Misses returns total lookup misses across both protocols.
func (s CacheStats) Misses() int64 { return s.CRLMisses + s.OCSPMisses }

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		CRLFetches:  c.crlFetches.Load(),
		DedupeJoins: c.dedupeJoins.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		st.CRLHits += sh.crlHits.Load()
		st.CRLMisses += sh.crlMisses.Load()
		st.OCSPHits += sh.ocspHits.Load()
		st.OCSPMisses += sh.ocspMisses.Load()
		st.Expired += sh.expired.Load()
	}
	return st
}

// crlShard hashes a distribution-point URL (FNV-1a) onto a shard.
func (c *Cache) crlShard(url string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(url); i++ {
		h ^= uint32(url[i])
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

// ocspShard picks the shard of an appendOCSPKey key from twelve of its
// bytes instead of a pass over all of them: a word of each issuer hash
// (uniform already, and all that tells two issuers apart) and the
// serial's last four bytes (all that tells one issuer's certificates
// apart; random for a CA that follows the Baseline Requirements, the low
// end of a counter for one that does not). The multiply spreads either
// kind over the high bits the index is taken from.
func (c *Cache) ocspShard(key []byte) *cacheShard {
	h := binary.BigEndian.Uint32(key) ^ binary.BigEndian.Uint32(key[32:]) ^ binary.BigEndian.Uint32(key[len(key)-4:])
	return &c.shards[(h*0x9E3779B1)>>16&c.mask]
}

// ocspKeyBuf is the stack scratch an OCSP lookup assembles its key in:
// two 32-byte hashes and a serial of up to 32 bytes (RFC 5280 allows 20),
// so the read path never allocates; a longer serial spills to the heap
// and still works.
type ocspKeyBuf [96]byte

// appendOCSPKey builds the cache key identifying (issuer, cert): the
// issuer's name hash, its key hash and the certificate's serial
// magnitude. Those are the three fields of the OCSP CertID (RFC 6960
// §4.1.1) in its own fixed-width order, so two keys are equal exactly
// when the CertIDs are: cross-signed issuers (one key under two names)
// and re-keyed ones (one name, two keys) stay apart, and the serial, the
// only variable-length part, comes last. All three are read from the
// certificates' memoised identity; building the key hashes nothing.
func appendOCSPKey(dst []byte, issuer, cert *x509x.Certificate) []byte {
	nameHash, keyHash := issuer.NameHash(), issuer.KeyHash()
	dst = append(dst, nameHash[:]...)
	dst = append(dst, keyHash[:]...)
	return append(dst, cert.SerialBytes()...)
}

// CRL returns the cached CRL for url if it is still current at now.
func (c *Cache) CRL(url string, now time.Time) (*crl.CRL, bool) {
	if c == nil || len(c.shards) == 0 {
		return nil, false
	}
	sh := c.crlShard(url)
	sh.mu.RLock()
	cached, ok := sh.crls[url]
	sh.mu.RUnlock()
	if !ok {
		sh.crlMisses.Add(1)
		return nil, false
	}
	if !cached.CurrentAt(now) {
		sh.expired.Add(1)
		sh.crlMisses.Add(1)
		return nil, false
	}
	sh.crlHits.Add(1)
	return cached, true
}

// PutCRL stores a CRL under its distribution-point URL. CRLs without a
// nextUpdate are not cached (no safe reuse window).
func (c *Cache) PutCRL(url string, parsed *crl.CRL) {
	if c == nil || len(c.shards) == 0 || parsed.NextUpdate.IsZero() {
		return
	}
	sh := c.crlShard(url)
	sh.mu.Lock()
	sh.crls[url] = parsed
	sh.mu.Unlock()
}

// OCSP returns the cached single response for (issuer, cert) if still
// current at now. The hit path takes one RLock and performs no
// allocations.
func (c *Cache) OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool) {
	if c == nil || len(c.shards) == 0 {
		return ocsp.SingleResponse{}, false
	}
	var buf ocspKeyBuf
	key := appendOCSPKey(buf[:0], issuer, cert)
	sh := c.ocspShard(key)
	sh.mu.RLock()
	sr, ok := sh.ocsps[string(key)]
	sh.mu.RUnlock()
	if !ok {
		sh.ocspMisses.Add(1)
		return ocsp.SingleResponse{}, false
	}
	if !sr.CurrentAt(now) {
		sh.expired.Add(1)
		sh.ocspMisses.Add(1)
		return ocsp.SingleResponse{}, false
	}
	sh.ocspHits.Add(1)
	return sr, true
}

// PutOCSP stores a verified single response. Responses without a
// nextUpdate are not cached.
func (c *Cache) PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse) {
	if c == nil || len(c.shards) == 0 || sr.NextUpdate.IsZero() {
		return
	}
	var buf ocspKeyBuf
	key := appendOCSPKey(buf[:0], issuer, cert)
	sh := c.ocspShard(key)
	sh.mu.Lock()
	sh.ocsps[string(key)] = sr
	sh.mu.Unlock()
}

// DoCRL returns a current CRL for url, fetching at most once no matter
// how many clients ask concurrently: the first miss runs fetch, every
// concurrent caller for the same URL waits on that flight, and later
// callers hit the cached result. A successful fetch is stored under the
// usual PutCRL rules. With a nil receiver DoCRL degrades to calling
// fetch directly.
func (c *Cache) DoCRL(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error) {
	if parsed, ok := c.CRL(url, now); ok {
		return parsed, SourceCached, nil
	}
	return c.fetchCRLOnce(url, now, fetch)
}

// fetchCRLOnce is DoCRL after the lookup missed. Client calls it directly
// so that it builds its fetch closure only once CRL has said no.
func (c *Cache) fetchCRLOnce(url string, now time.Time, fetch func() (*crl.CRL, error)) (*crl.CRL, CRLSource, error) {
	if c == nil || len(c.shards) == 0 {
		parsed, err := fetch()
		return parsed, SourceFetched, err
	}
	sh := c.crlShard(url)
	sh.mu.Lock()
	// Re-check under the write lock: a flight may have completed between
	// the read miss and here.
	if cached, ok := sh.crls[url]; ok && cached.CurrentAt(now) {
		sh.mu.Unlock()
		sh.crlHits.Add(1)
		return cached, SourceCached, nil
	}
	if fl := sh.flights[url]; fl != nil {
		sh.mu.Unlock()
		<-fl.ready
		c.dedupeJoins.Add(1)
		return fl.parsed, SourceJoined, fl.err
	}
	fl := &crlFlight{ready: make(chan struct{})}
	sh.flights[url] = fl
	sh.mu.Unlock()

	c.crlFetches.Add(1)
	parsed, err := fetch()
	fl.parsed, fl.err = parsed, err
	if err == nil {
		c.PutCRL(url, parsed)
	}
	sh.mu.Lock()
	delete(sh.flights, url)
	sh.mu.Unlock()
	close(fl.ready)
	return parsed, SourceFetched, err
}

// Len reports the number of cached CRLs and OCSP responses.
func (c *Cache) Len() (crls, ocsps int) {
	if c == nil {
		return 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		crls += len(sh.crls)
		ocsps += len(sh.ocsps)
		sh.mu.RUnlock()
	}
	return crls, ocsps
}
