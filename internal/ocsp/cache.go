// The caching serving plane. The paper observes (§2.2, §5) that real CAs
// survive OCSP query load by signing each response once per validity
// window and replaying it — usually through CDN caches — to every client
// that asks. CachingResponder reproduces that architecture: a pre-signed
// DER response per CertID, valid until its nextUpdate under the virtual
// clock, with singleflight collapse so a stampede of concurrent misses
// signs exactly once, and RFC 5019 §6.2 cacheability headers so an HTTP
// cache in front (simnet.CDN) can model the CDN tier.

package ocsp

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// cacheShards is the number of lock shards; a power of two so the shard
// index is a mask of the key hash.
const cacheShards = 64

// CachingResponder wraps a Responder with a pre-signed response cache.
// Construct with NewCachingResponder. Safe for concurrent use.
//
// Two lookup tiers serve a query:
//
//  1. a transport cache keyed by the raw request bytes as they arrived
//     (the base64 GET path or the POST body), which on a hit skips even
//     DER request parsing, and
//  2. the authoritative cache keyed by CertID.Key(), sharded cacheShards
//     ways, where concurrent misses for one CertID collapse into a single
//     signature (singleflight).
//
// Requests carrying a nonce (when EchoNonce is set) and multi-certificate
// requests are signed fresh every time: a nonced response is unique to its
// request, and a multi-ID response is one jointly signed blob that cannot
// be stitched from per-ID entries.
type CachingResponder struct {
	*Responder

	shards [cacheShards]cacheShard
	// byReq is the transport cache: raw request bytes → entry. Only
	// single-ID nonce-free requests are mapped (established on the slow
	// path, where the request has been parsed); entries dropped from the
	// authoritative cache are unlinked lazily on their next lookup.
	byReq sync.Map // string → *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	signs     atomic.Int64
	bypasses  atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one pre-signed response. ready is closed once der/err are
// final; waiters block on it, which is what collapses a miss stampede.
type cacheEntry struct {
	ready chan struct{}
	err   error

	der        []byte
	thisUpdate time.Time
	nextUpdate time.Time
	// The header values fixed at signing time, each as the one-element
	// slice an http.Header holds, so a hit assigns them without formatting
	// or allocating. Like der they are never written after ready closes,
	// and every response served from this entry shares them.
	etag, lastModified, expires, contentLength []string
	// aged memoises the two values that follow the clock.
	aged atomic.Pointer[agedHeaders]
	// dropped is set when the entry leaves the authoritative cache
	// (eviction, expiry replacement, or a failed signature), telling
	// transport-cache hits to fall through to the slow path.
	dropped atomic.Bool
}

// agedHeaders are an entry's Date and Cache-Control as served at one
// instant; unix and maxAge together determine both strings.
type agedHeaders struct {
	unix, maxAge       int64
	date, cacheControl []string
}

var ocspContentType = []string{"application/ocsp-response"}

// NewCachingResponder wraps r with an empty cache.
func NewCachingResponder(r *Responder) *CachingResponder {
	cr := &CachingResponder{Responder: r}
	for i := range cr.shards {
		cr.shards[i].entries = make(map[string]*cacheEntry)
	}
	return cr
}

// CacheStats counts cache activity since construction.
type CacheStats struct {
	// Hits are queries served from a pre-signed entry (either tier).
	Hits int64
	// Misses are queries that found no live entry and went to the signer
	// (or joined a singleflight already doing so).
	Misses int64
	// Signs counts actual signature operations — the number a CA's HSM
	// would bill for. Hits+Misses relate to Signs through singleflight:
	// many misses can share one sign.
	Signs int64
	// Bypasses are nonced or multi-certificate requests, signed fresh.
	Bypasses int64
	// Evictions counts entries removed by EvictCertID (CA revocations).
	Evictions int64
}

// Stats returns a snapshot of the cache counters.
func (cr *CachingResponder) Stats() CacheStats {
	return CacheStats{
		Hits:      cr.hits.Load(),
		Misses:    cr.misses.Load(),
		Signs:     cr.signs.Load(),
		Bypasses:  cr.bypasses.Load(),
		Evictions: cr.evictions.Load(),
	}
}

// shardIndex hashes key (FNV-1a) onto a shard.
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (cacheShards - 1))
}

// EvictCertID removes any cached response for id. The CA calls this from
// its revocation path so the next query re-signs with the new status; a
// singleflight in progress for id is detached rather than interrupted, so
// only requests that began before the eviction can still observe the old
// status.
func (cr *CachingResponder) EvictCertID(id CertID) {
	key := id.Key()
	sh := &cr.shards[shardIndex(key)]
	sh.mu.Lock()
	e := sh.entries[key]
	if e != nil {
		delete(sh.entries, key)
		e.dropped.Store(true)
	}
	sh.mu.Unlock()
	if e != nil {
		cr.evictions.Add(1)
	}
}

// Flush drops every cached entry (the transport tier unlinks lazily).
func (cr *CachingResponder) Flush() {
	for i := range cr.shards {
		sh := &cr.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			e.dropped.Store(true)
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
	}
}

// ServeHTTP implements http.Handler.
func (cr *CachingResponder) ServeHTTP(w http.ResponseWriter, httpReq *http.Request) {
	now := cr.now()

	// Transport fast path: raw request bytes already mapped to a live
	// pre-signed entry — no unescaping, no base64, no DER parsing.
	reqKey, keyed := transportKey(httpReq)
	if keyed {
		if v, ok := cr.byReq.Load(reqKey); ok {
			e := v.(*cacheEntry)
			if entryLive(e, now) {
				cr.hits.Add(1)
				cr.serveEntry(w, httpReq, e, now)
				return
			}
			cr.byReq.Delete(reqKey)
		}
	}

	reqDER, ok := decodeHTTPRequest(w, httpReq)
	if !ok {
		return
	}
	if !keyed {
		// POST: the body was just read; key the transport cache by it.
		reqKey, keyed = string(reqDER), true
		if v, ok := cr.byReq.Load(reqKey); ok {
			e := v.(*cacheEntry)
			if entryLive(e, now) {
				cr.hits.Add(1)
				cr.serveEntry(w, httpReq, e, now)
				return
			}
			cr.byReq.Delete(reqKey)
		}
	}
	req, err := ParseRequest(reqDER)
	if err != nil || len(req.IDs) == 0 {
		writeError(w, RespMalformedRequest)
		return
	}

	if len(req.IDs) != 1 || (cr.EchoNonce && len(req.Nonce) > 0) {
		cr.bypasses.Add(1)
		cr.signs.Add(1)
		respDER, err := CreateResponse(cr.template(req, now), cr.Signer, cr.Key)
		if err != nil {
			writeError(w, RespInternalError)
			return
		}
		writeDER(w, respDER)
		return
	}

	e, err := cr.lookup(req.IDs[0], now)
	if err != nil {
		writeError(w, RespInternalError)
		return
	}
	if keyed {
		cr.byReq.Store(reqKey, e)
	}
	cr.serveEntry(w, httpReq, e, now)
}

// transportKey returns the raw-bytes cache key for requests whose key is
// available before reading anything: the GET path, keyed by the base64
// text it decodes (getPayload), so that escaped and raw spellings of one
// request share an entry. POST bodies are keyed by the caller after the
// read.
func transportKey(httpReq *http.Request) (string, bool) {
	if httpReq.Method != http.MethodGet {
		return "", false
	}
	return getPayload(httpReq.URL), true
}

// entryLive reports whether e is signed, healthy, still in the
// authoritative cache, and within its validity window at now.
func entryLive(e *cacheEntry, now time.Time) bool {
	select {
	case <-e.ready:
	default:
		return false // still signing; take the slow path and wait there
	}
	return e.err == nil && !e.dropped.Load() && !now.After(e.nextUpdate)
}

// lookup returns a live entry for id, signing one if needed. Concurrent
// callers for the same id share a single signature.
func (cr *CachingResponder) lookup(id CertID, now time.Time) (*cacheEntry, error) {
	key := id.Key()
	sh := &cr.shards[shardIndex(key)]
	for {
		sh.mu.Lock()
		e := sh.entries[key]
		if e == nil {
			e = &cacheEntry{ready: make(chan struct{})}
			sh.entries[key] = e
			sh.mu.Unlock()
			cr.misses.Add(1)
			cr.fill(sh, key, e, id, now)
			return e, e.err
		}
		sh.mu.Unlock()
		<-e.ready
		if e.err == nil && !now.After(e.nextUpdate) {
			cr.hits.Add(1)
			return e, nil
		}
		// Expired (or failed and not yet unlinked): drop it — unless a
		// concurrent caller already replaced it — and try again.
		sh.mu.Lock()
		if sh.entries[key] == e {
			delete(sh.entries, key)
			e.dropped.Store(true)
		}
		sh.mu.Unlock()
	}
}

// fill signs the response for id into e and publishes it. The placeholder
// entry is already in the shard map, which is what makes a concurrent
// Revoke safe: eviction removes the placeholder, so a status read that
// predates the revocation can only ever be served to requests that also
// predate it.
func (cr *CachingResponder) fill(sh *cacheShard, key string, e *cacheEntry, id CertID, now time.Time) {
	defer close(e.ready)
	tmpl := cr.template(&Request{IDs: []CertID{id}}, now)
	respDER, err := CreateResponse(tmpl, cr.Signer, cr.Key)
	if err != nil {
		// Failed signatures are not cached; unlink so the next query
		// retries.
		e.err = err
		e.dropped.Store(true)
		sh.mu.Lock()
		if sh.entries[key] == e {
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
		return
	}
	cr.signs.Add(1)
	sum := sha256.Sum256(respDER)
	e.der = respDER
	e.thisUpdate = tmpl.Responses[0].ThisUpdate
	e.nextUpdate = tmpl.Responses[0].NextUpdate
	e.etag = []string{`"` + hex.EncodeToString(sum[:16]) + `"`}
	e.lastModified = []string{e.thisUpdate.UTC().Format(http.TimeFormat)}
	e.expires = []string{e.nextUpdate.UTC().Format(http.TimeFormat)}
	e.contentLength = []string{strconv.Itoa(len(respDER))}
}

// serveEntry writes the pre-signed response with the RFC 5019 §6.2
// cacheability headers — max-age/Expires derived from nextUpdate, ETag,
// Last-Modified — that let a fronting HTTP cache replay it. Only Date and
// max-age depend on now, and they are formatted once per entry per second
// served; everything else was formatted when the entry was signed.
func (cr *CachingResponder) serveEntry(w http.ResponseWriter, httpReq *http.Request, e *cacheEntry, now time.Time) {
	maxAge := int64(e.nextUpdate.Sub(now) / time.Second)
	if maxAge < 0 {
		maxAge = 0
	}
	aged := e.aged.Load()
	if unix := now.Unix(); aged == nil || aged.unix != unix || aged.maxAge != maxAge {
		aged = &agedHeaders{
			unix:         unix,
			maxAge:       maxAge,
			date:         []string{now.UTC().Format(http.TimeFormat)},
			cacheControl: []string{"max-age=" + strconv.FormatInt(maxAge, 10) + ",public,no-transform,must-revalidate"},
		}
		e.aged.Store(aged)
	}
	h := w.Header()
	h["Content-Type"] = ocspContentType
	h["Etag"] = e.etag
	h["Last-Modified"] = e.lastModified
	h["Expires"] = e.expires
	h["Date"] = aged.date
	h["Cache-Control"] = aged.cacheControl
	if im := httpReq.Header.Get("If-None-Match"); im != "" && im == e.etag[0] {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Length"] = e.contentLength
	w.Write(e.der)
}
