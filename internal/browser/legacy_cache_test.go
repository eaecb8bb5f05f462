package browser

import (
	"sync"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

// SingleLockCache is the seed tree's browser cache, preserved verbatim as
// the reference half of the Cache differential tests: one global mutex
// over two maps, an exclusive lock even for read hits, delete-on-read for
// expired entries, and an ocsp.CertID key string built — twice — per
// lookup. Cache is the production Store.
type SingleLockCache struct {
	mu    sync.Mutex
	crls  map[string]*crl.CRL
	ocsps map[string]ocsp.SingleResponse
}

// NewSingleLockCache returns an empty seed-style cache.
func NewSingleLockCache() *SingleLockCache {
	return &SingleLockCache{
		crls:  make(map[string]*crl.CRL),
		ocsps: make(map[string]ocsp.SingleResponse),
	}
}

// CRL returns the cached CRL for url if it is still current at now.
func (c *SingleLockCache) CRL(url string, now time.Time) (*crl.CRL, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cached, ok := c.crls[url]
	if !ok || !cached.CurrentAt(now) {
		delete(c.crls, url)
		return nil, false
	}
	return cached, true
}

// PutCRL stores a CRL under its distribution-point URL.
func (c *SingleLockCache) PutCRL(url string, parsed *crl.CRL) {
	if c == nil || parsed.NextUpdate.IsZero() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crls[url] = parsed
}

// OCSP returns the cached single response for (issuer, cert) if still
// current at now, reproducing the seed hot path: the CertID is rebuilt
// from scratch and its Key() computed twice under the exclusive lock.
func (c *SingleLockCache) OCSP(issuer, cert *x509x.Certificate, now time.Time) (ocsp.SingleResponse, bool) {
	if c == nil {
		return ocsp.SingleResponse{}, false
	}
	id := ocsp.NewCertID(issuer, cert.SerialNumber)
	c.mu.Lock()
	defer c.mu.Unlock()
	sr, ok := c.ocsps[id.Key()]
	if !ok || !sr.CurrentAt(now) {
		delete(c.ocsps, id.Key())
		return ocsp.SingleResponse{}, false
	}
	return sr, true
}

// PutOCSP stores a verified single response.
func (c *SingleLockCache) PutOCSP(issuer, cert *x509x.Certificate, sr ocsp.SingleResponse) {
	if c == nil || sr.NextUpdate.IsZero() {
		return
	}
	id := ocsp.NewCertID(issuer, cert.SerialNumber)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ocsps[id.Key()] = sr
}

// Len reports the number of cached CRLs and OCSP responses.
func (c *SingleLockCache) Len() (crls, ocsps int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.crls), len(c.ocsps)
}
