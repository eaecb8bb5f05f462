package simnet

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CDN is an http.Handler modelling the CDN cache tier real CAs put in
// front of their OCSP responders and CRL servers (§2.2, §5): GET
// responses are stored for the freshness lifetime their Cache-Control
// max-age / Expires headers declare and replayed without touching the
// origin, conditional requests revalidate against the stored ETag, and
// everything else passes through. Hit/miss counters expose the cache
// economics the paper attributes to pre-produced responses.
//
// A stored response is never written again. A full-body hit answered to
// the fabric (Network.RoundTrip) is replayed by reference: the client's
// response carries the stored body and a header map shared by every hit
// on that entry in the same Age second, which is why RoundTrip documents
// both as read-only. Any other http.ResponseWriter (a real server's, an
// httptest recorder) and every 304 get their own copy of the headers.
//
// The model is deliberately a single shared cache (one "edge"); per-POP
// effects are out of scope. Vary is ignored — the origin handlers here
// never produce content-negotiated responses.
type CDN struct {
	// Origin receives misses and non-GET traffic.
	Origin http.Handler
	// Now supplies cache time; time.Now when nil. The simulation points
	// this at the virtual clock so entries expire in simulated time.
	Now func() time.Time

	mu sync.RWMutex
	// entries is the cache, keyed by the serialised URL. byFields reaches
	// the same entries from a URL's fields, so a request whose URL has
	// been seen before is looked up without being serialised.
	entries  map[string]*cdnEntry
	byFields map[cdnKey]*cdnEntry

	hits, misses, bypasses, notModified atomic.Int64
}

// CDNStats counts cache outcomes.
type CDNStats struct {
	// Hits are GETs served from cache, including 304 revalidations.
	Hits int64
	// Misses are GETs forwarded to the origin (no entry, or expired).
	Misses int64
	// Bypasses are non-GET requests, always forwarded.
	Bypasses int64
	// NotModified counts the subset of Hits answered 304 via ETag.
	NotModified int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 with no GET traffic.
func (s CDNStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cdnKey is every field of a URL that URL.String reads, so two URLs with
// equal keys serialise equally and may share an entry. The converse does
// not hold (a literal space and %20 in a path parse to different fields
// and serialise alike), which is why the cache proper is keyed by the
// string and a key is only a shortcut to an entry found that way once.
type cdnKey struct {
	scheme, host, path, rawPath, rawQuery string
	forceQuery, omitHost                  bool
	// other is the whole serialised URL when it has a part no HTTP
	// request line carries (opaque, userinfo, fragment), and is then the
	// only field set.
	other string
}

func cdnKeyOf(u *url.URL) cdnKey {
	if u.Opaque != "" || u.User != nil || u.Fragment != "" {
		return cdnKey{other: u.String()}
	}
	return cdnKey{
		scheme: u.Scheme, host: u.Host, path: u.Path, rawPath: u.RawPath, rawQuery: u.RawQuery,
		forceQuery: u.ForceQuery, omitHost: u.OmitHost,
	}
}

// cdnEntry is one stored response. Everything but view is fixed before
// the entry becomes reachable.
type cdnEntry struct {
	status  int
	header  http.Header
	etag    string
	body    []byte
	stored  time.Time
	expires time.Time
	// view is the header map of a hit, built once per Age second.
	view atomic.Pointer[cdnView]
}

// cdnView is an entry's header plus the two fields a hit adds. It is
// immutable once published and shares header's value slices.
type cdnView struct {
	age    int64
	header http.Header
}

var xCacheHit = []string{"HIT"}

// hitHeader returns the read-only header map of a hit at the given age.
func (e *cdnEntry) hitHeader(age int64) http.Header {
	if v := e.view.Load(); v != nil && v.age == age {
		return v.header
	}
	h := make(http.Header, len(e.header)+2)
	for k, vs := range e.header {
		h[k] = vs
	}
	h["X-Cache"] = xCacheHit
	h["Age"] = []string{strconv.FormatInt(age, 10)}
	e.view.Store(&cdnView{age: age, header: h})
	return h
}

// NewCDN returns an empty cache in front of origin. now may be nil.
func NewCDN(origin http.Handler, now func() time.Time) *CDN {
	return &CDN{Origin: origin, Now: now, entries: make(map[string]*cdnEntry), byFields: make(map[cdnKey]*cdnEntry)}
}

func (c *CDN) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Stats returns a snapshot of the cache counters.
func (c *CDN) Stats() CDNStats {
	return CDNStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Bypasses:    c.bypasses.Load(),
		NotModified: c.notModified.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (c *CDN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.bypasses.Add(1)
		c.Origin.ServeHTTP(w, r)
		return
	}
	key := cdnKeyOf(r.URL)
	now := c.now()
	c.mu.RLock()
	e := c.byFields[key]
	c.mu.RUnlock()
	live := e != nil && now.Before(e.expires)
	serialised := key.other
	if !live {
		// First request with these fields, or the entry they led to has
		// lapsed: ask the cache proper. A live shortcut needs no such
		// check, since an entry is replaced only after it lapsed (or by a
		// fill that raced its own, which is as good an answer).
		if serialised == "" {
			serialised = r.URL.String()
		}
		c.mu.Lock()
		e = c.entries[serialised]
		if live = e != nil && now.Before(e.expires); live {
			c.byFields[key] = e
		}
		c.mu.Unlock()
	}
	if live {
		c.hits.Add(1)
		c.serve(w, r, e, now, true)
		return
	}
	c.misses.Add(1)

	// Fetch from origin with conditionals stripped, so the cache always
	// stores a full response even when the client sent If-None-Match.
	fwd := r
	if r.Header.Get("If-None-Match") != "" || r.Header.Get("If-Modified-Since") != "" {
		fwd = r.Clone(r.Context())
		fwd.Header.Del("If-None-Match")
		fwd.Header.Del("If-Modified-Since")
	}
	rec := &recorder{}
	c.Origin.ServeHTTP(rec, fwd)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	header := rec.header
	if header == nil {
		header = http.Header{}
	}
	e = &cdnEntry{status: rec.code, header: header, etag: header.Get("ETag"), body: rec.body, stored: now}
	if rec.code == http.StatusOK {
		if ttl, ok := freshnessLifetime(header, now); ok && ttl > 0 {
			e.expires = now.Add(ttl)
			c.mu.Lock()
			c.entries[serialised] = e
			c.byFields[key] = e
			c.mu.Unlock()
		}
	}
	c.serve(w, r, e, now, false)
}

// serve replays a stored (or just-fetched) response, answering 304 when
// the client's validator matches a cache hit.
func (c *CDN) serve(w http.ResponseWriter, r *http.Request, e *cdnEntry, now time.Time, hit bool) {
	age := int64(now.Sub(e.stored) / time.Second)
	notModified := hit && e.etag != "" && headerValue(r.Header, "If-None-Match") == e.etag
	if rec, ok := w.(*recorder); ok && hit && !notModified && rec.untouched() {
		rec.code, rec.header, rec.body = e.status, e.hitHeader(age), e.body
		return
	}
	h := w.Header()
	for k, vs := range e.header {
		h[k] = append(h[k], vs...)
	}
	if hit {
		h.Set("X-Cache", "HIT")
		h.Set("Age", strconv.FormatInt(age, 10))
		if notModified {
			c.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else {
		h.Set("X-Cache", "MISS")
	}
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// headerValue is h.Get(key) for a key already in canonical form, without
// the canonicalisation pass.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// Flush drops every cached entry (an operator purge).
func (c *CDN) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cdnEntry)
	c.byFields = make(map[cdnKey]*cdnEntry)
}

// freshnessLifetime derives how long a response may be served from cache:
// Cache-Control max-age wins over Expires (RFC 9111 §4.2.1), and
// no-store / no-cache / private forbid caching outright.
func freshnessLifetime(h http.Header, now time.Time) (time.Duration, bool) {
	if cc := h.Get("Cache-Control"); cc != "" {
		maxAge, haveMaxAge := time.Duration(0), false
		for _, part := range strings.Split(cc, ",") {
			part = strings.TrimSpace(part)
			switch {
			case part == "no-store" || part == "no-cache" || part == "private":
				return 0, false
			case strings.HasPrefix(part, "max-age="):
				if secs, err := strconv.Atoi(part[len("max-age="):]); err == nil {
					maxAge, haveMaxAge = time.Duration(secs)*time.Second, true
				}
			}
		}
		if haveMaxAge {
			return maxAge, true
		}
	}
	if exp := h.Get("Expires"); exp != "" {
		if t, err := http.ParseTime(exp); err == nil {
			return t.Sub(now), true
		}
	}
	return 0, false
}
