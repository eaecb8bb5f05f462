package simnet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime"
)

// cdnOrigin is a counting origin that serves a versioned body with a
// configurable Cache-Control header.
type cdnOrigin struct {
	calls        atomic.Int64
	cacheControl string
	etag         string
}

func (o *cdnOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := o.calls.Add(1)
	if o.cacheControl != "" {
		w.Header().Set("Cache-Control", o.cacheControl)
	}
	if o.etag != "" {
		w.Header().Set("ETag", o.etag)
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "v"+strconv.FormatInt(n, 10))
}

func cdnGet(t *testing.T, cdn *CDN, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	cdn.ServeHTTP(rec, req)
	return rec
}

func TestCDNCachesUntilExpiry(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := &cdnOrigin{cacheControl: "max-age=3600,public"}
	cdn := NewCDN(origin, clock.Now)

	first := cdnGet(t, cdn, "/ocsp/abc", nil)
	if first.Body.String() != "v1" || first.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first: body=%q x-cache=%q", first.Body.String(), first.Header().Get("X-Cache"))
	}

	// Within the hour: replayed, origin untouched, Age advances.
	clock.Advance(30 * time.Minute)
	second := cdnGet(t, cdn, "/ocsp/abc", nil)
	if second.Body.String() != "v1" || second.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second: body=%q x-cache=%q", second.Body.String(), second.Header().Get("X-Cache"))
	}
	if age := second.Header().Get("Age"); age != "1800" {
		t.Errorf("Age = %q, want 1800", age)
	}
	if origin.calls.Load() != 1 {
		t.Fatalf("origin calls = %d", origin.calls.Load())
	}

	// Past expiry: refetched.
	clock.Advance(31 * time.Minute)
	third := cdnGet(t, cdn, "/ocsp/abc", nil)
	if third.Body.String() != "v2" || third.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("third: body=%q x-cache=%q", third.Body.String(), third.Header().Get("X-Cache"))
	}

	st := cdn.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := float64(st.Hits) / float64(st.Hits+st.Misses); got < 0.33 || got > 0.34 {
		t.Errorf("hit ratio = %v", got)
	}
}

func TestCDNDistinctURLsDistinctEntries(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := &cdnOrigin{cacheControl: "max-age=60"}
	cdn := NewCDN(origin, clock.Now)
	cdnGet(t, cdn, "/a", nil)
	cdnGet(t, cdn, "/b", nil)
	if origin.calls.Load() != 2 {
		t.Errorf("origin calls = %d, want per-URL entries", origin.calls.Load())
	}
	cdnGet(t, cdn, "/a", nil)
	if origin.calls.Load() != 2 {
		t.Error("cached /a refetched")
	}
}

func TestCDNPOSTBypasses(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := &cdnOrigin{cacheControl: "max-age=3600"}
	cdn := NewCDN(origin, clock.Now)
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ocsp", strings.NewReader("body"))
		rec := httptest.NewRecorder()
		cdn.ServeHTTP(rec, req)
	}
	if origin.calls.Load() != 2 {
		t.Errorf("origin calls = %d: POST must never be served from cache", origin.calls.Load())
	}
	if st := cdn.Stats(); st.Bypasses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCDNUncacheableNotStored(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	for _, cc := range []string{"", "no-store", "no-cache", "private, max-age=60", "max-age=0"} {
		origin := &cdnOrigin{cacheControl: cc}
		cdn := NewCDN(origin, clock.Now)
		cdnGet(t, cdn, "/x", nil)
		cdnGet(t, cdn, "/x", nil)
		if origin.calls.Load() != 2 {
			t.Errorf("Cache-Control=%q: origin calls = %d, want 2 (uncacheable)", cc, origin.calls.Load())
		}
	}
}

func TestCDNExpiresFallback(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	var origin http.HandlerFunc = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Expires", clock.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
		io.WriteString(w, "ok")
	}
	cdn := NewCDN(origin, clock.Now)
	cdnGet(t, cdn, "/crl/0.crl", nil)
	clock.Advance(30 * time.Minute)
	rec := cdnGet(t, cdn, "/crl/0.crl", nil)
	if rec.Header().Get("X-Cache") != "HIT" {
		t.Error("Expires-only response not cached")
	}
	clock.Advance(31 * time.Minute)
	rec = cdnGet(t, cdn, "/crl/0.crl", nil)
	if rec.Header().Get("X-Cache") != "MISS" {
		t.Error("entry outlived Expires")
	}
}

func TestCDNConditionalRevalidation(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := &cdnOrigin{cacheControl: "max-age=3600", etag: `"abc123"`}
	cdn := NewCDN(origin, clock.Now)

	// A first conditional request must still fill the cache with a full
	// body (the conditional is stripped before hitting the origin).
	first := cdnGet(t, cdn, "/r", map[string]string{"If-None-Match": `"abc123"`})
	if first.Code != http.StatusOK || first.Body.Len() == 0 {
		t.Fatalf("miss with conditional: code=%d len=%d", first.Code, first.Body.Len())
	}

	// A matching conditional on a warm entry revalidates with 304.
	second := cdnGet(t, cdn, "/r", map[string]string{"If-None-Match": `"abc123"`})
	if second.Code != http.StatusNotModified || second.Body.Len() != 0 {
		t.Fatalf("revalidation: code=%d len=%d", second.Code, second.Body.Len())
	}
	// A non-matching conditional gets the full cached body.
	third := cdnGet(t, cdn, "/r", map[string]string{"If-None-Match": `"other"`})
	if third.Code != http.StatusOK || third.Body.String() != "v1" {
		t.Fatalf("mismatch: code=%d body=%q", third.Code, third.Body.String())
	}
	st := cdn.Stats()
	if st.NotModified != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if origin.calls.Load() != 1 {
		t.Errorf("origin calls = %d", origin.calls.Load())
	}
}

// flush drops every cached entry, as an operator purge would.
func (c *CDN) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cdnEntry)
	c.byFields = make(map[cdnKey]*cdnEntry)
}

func TestCDNFlush(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := &cdnOrigin{cacheControl: "max-age=3600"}
	cdn := NewCDN(origin, clock.Now)
	cdnGet(t, cdn, "/x", nil)
	cdn.flush()
	cdnGet(t, cdn, "/x", nil)
	if origin.calls.Load() != 2 {
		t.Error("flush did not drop the entry")
	}
}

// TestCDNOverOCSPResponder is the integration the load model cares
// about: fronting the CA's caching responder with the CDN tier yields
// cache hits governed by the responder's advertised max-age.
func TestCDNOverOCSPResponder(t *testing.T) {
	clock := simtime.NewClock(simtime.CrawlStart)
	net := New()
	// The recorder-based CDN needs an http.Handler origin; use a plain
	// handler that emits a cacheable body.
	hits := atomic.Int64{}
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Cache-Control", "max-age=120,public")
		io.WriteString(w, "der-bytes")
	})
	cdn := NewCDN(origin, clock.Now)
	net.Register("ocsp.cdn.test", cdn)
	client := net.Client()
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://ocsp.cdn.test/ocsp/req")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits.Load() != 1 {
		t.Errorf("origin hits = %d, want 1 (4 CDN hits)", hits.Load())
	}
	if st := cdn.Stats(); st.Hits != 4 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1 (hit ratio 0.8)", st.Hits, st.Misses)
	}
}
