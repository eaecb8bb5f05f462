package ca

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Handler returns an http.Handler exposing the CA's distribution services:
//
//	GET /crl/<shard>.crl  — the shard's current CRL (DER)
//	ANY /ocsp/...         — the OCSP responder (GET and POST)
//
// CRLs are regenerated when the cached copy expires relative to the CA's
// clock, mimicking a CA that re-signs its CRLs on each validity period
// even when nothing changed (§2.2).
//
// The handler is built on the first call and every call returns it, so a
// CA registered under a CRL host and an OCSP host has one CRL cache, one
// pre-signed OCSP cache and one revocation hook, not one per host.
func (ca *CA) Handler() http.Handler {
	ca.handlerOnce.Do(func() { ca.handler = ca.newHandler() })
	return ca.handler
}

func (ca *CA) newHandler() http.Handler {
	mux := http.NewServeMux()
	cache := &crlCache{ca: ca, entries: make(map[int]*crlCacheEntry)}
	mux.HandleFunc("/crl/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/crl/")
		shardStr, ok := strings.CutSuffix(name, ".crl")
		if !ok {
			http.NotFound(w, r)
			return
		}
		shard, err := strconv.Atoi(shardStr)
		if err != nil || shard < 0 || shard >= ca.cfg.NumCRLShards {
			http.NotFound(w, r)
			return
		}
		e, cacheControl, err := cache.get(shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h["Content-Type"] = crlContentType
		h["Content-Length"] = e.contentLength
		h["Cache-Control"] = cacheControl
		h["Expires"] = e.expiresHeader
		w.Write(e.body)
	})
	responder := ca.CachingResponder()
	mux.Handle("/ocsp/", http.StripPrefix("/ocsp", responder))
	mux.Handle("/ocsp", responder)
	return mux
}

var crlContentType = []string{"application/pkix-crl"}

// crlCache caches generated CRLs until their validity window lapses.
type crlCache struct {
	ca *CA
	mu sync.Mutex
	// entries[shard] holds the cached bytes and their regeneration
	// deadline.
	entries map[int]*crlCacheEntry
}

// crlCacheEntry is one generated CRL with the header values that were
// fixed when it was generated, each as the one-element slice an
// http.Header holds. Every response served from the entry shares them
// and the body; none is written after the entry is stored.
type crlCacheEntry struct {
	body    []byte
	expires time.Time
	// epoch is the CA's revocation epoch when the entry was built; with
	// PublishRevocationsImmediately set, a later revocation anywhere in
	// the CA invalidates the entry even inside its validity window.
	epoch int64

	contentLength, expiresHeader []string
	// cacheControl is the max-age header for maxAge seconds of remaining
	// validity, reformatted (under crlCache.mu) when that number changes.
	maxAge       int64
	cacheControl []string
}

// get returns shard's current entry, regenerating it if it has lapsed,
// and the Cache-Control value for the validity it has left now (returned
// apart because the entry's copy changes under mu with the clock).
func (c *crlCache) get(shard int) (*crlCacheEntry, []string, error) {
	now := c.ca.now()
	epoch := c.ca.revEpoch.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[shard]
	if e == nil || !now.Before(e.expires) || (c.ca.cfg.PublishRevocationsImmediately && e.epoch != epoch) {
		body, err := c.ca.CRLBytes(shard)
		if err != nil {
			return nil, nil, err
		}
		expires := now.Add(c.ca.cfg.CRLValidity)
		e = &crlCacheEntry{
			body:          body,
			expires:       expires,
			epoch:         epoch,
			contentLength: []string{strconv.Itoa(len(body))},
			expiresHeader: []string{expires.UTC().Format(http.TimeFormat)},
			maxAge:        -1,
		}
		c.entries[shard] = e
	}
	maxAge := int64(e.expires.Sub(now) / time.Second)
	if maxAge < 0 {
		maxAge = 0
	}
	if e.maxAge != maxAge {
		e.maxAge = maxAge
		e.cacheControl = []string{"max-age=" + strconv.FormatInt(maxAge, 10) + ",public"}
	}
	return e, e.cacheControl, nil
}
