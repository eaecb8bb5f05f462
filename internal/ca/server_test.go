package ca

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
)

// TestHandlerBuiltOnce: a CA registered under two hosts serves both from
// one handler, so a revocation runs one eviction hook and the serial it
// evicts is gone from the only pre-signed cache there is.
func TestHandlerBuiltOnce(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "once.example.com"))
	crlHost, ocspHost := authority.Handler(), authority.Handler()
	if crlHost != ocspHost {
		t.Fatal("two Handler() calls returned different handlers")
	}
	if n := len(authority.revokeHooks); n != 1 {
		t.Fatalf("%d revocation hooks registered, want 1", n)
	}

	reqDER := (&ocsp.Request{IDs: []ocsp.CertID{ocsp.NewCertID(authority.Certificate(), rec.Serial)}}).Marshal()
	status := func(h http.Handler) ocsp.Status {
		t.Helper()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/ocsp/"+url.PathEscape(base64.StdEncoding.EncodeToString(reqDER)), nil))
		resp, err := ocsp.ParseResponse(rw.Body.Bytes())
		if err != nil || len(resp.Responses) != 1 {
			t.Fatalf("OCSP answer: %v", err)
		}
		return resp.Responses[0].Status
	}
	if got := status(ocspHost); got != ocsp.StatusGood {
		t.Fatalf("before revocation: %v", got)
	}
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	if got := status(crlHost); got != ocsp.StatusRevoked {
		t.Errorf("after revocation: %v, the warm Good survived", got)
	}

	// A responder asked for by name is still the caller's own.
	if authority.CachingResponder() == authority.CachingResponder() {
		t.Error("CachingResponder returned a shared responder")
	}
}

// reusedHeaderWriter discards the body and keeps one header map across
// requests, as net/http does per connection.
type reusedHeaderWriter struct{ h http.Header }

func (w *reusedHeaderWriter) Header() http.Header         { return w.h }
func (w *reusedHeaderWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *reusedHeaderWriter) WriteHeader(int)             {}

// TestCRLHandlerHit checks the CRL endpoint's headers against the block
// it used to format on every request, across a clock step inside the
// validity window, and gates what a hit allocates.
func TestCRLHandlerHit(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	handler := authority.Handler()
	req := httptest.NewRequest(http.MethodGet, "/crl/1.crl", nil)
	generated := clock.Now()
	for _, step := range []time.Duration{0, 0, 90 * time.Minute, 500 * time.Millisecond} {
		clock.Advance(step)
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		expires := generated.Add(24 * time.Hour)
		want := http.Header{
			"Content-Type":   {"application/pkix-crl"},
			"Content-Length": {strconv.Itoa(rw.Body.Len())},
			"Cache-Control":  {"max-age=" + strconv.FormatInt(int64(expires.Sub(clock.Now())/time.Second), 10) + ",public"},
			"Expires":        {expires.UTC().Format(http.TimeFormat)},
		}
		if rw.Code != http.StatusOK || !reflect.DeepEqual(rw.Header(), want) {
			t.Errorf("after %v: code %d\n got %v\nwant %v", step, rw.Code, rw.Header(), want)
		}
	}

	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	rw := &reusedHeaderWriter{h: make(http.Header, 8)}
	allocs := testing.AllocsPerRun(200, func() {
		clear(rw.h)
		handler.ServeHTTP(rw, req)
	})
	if allocs > 3 {
		t.Errorf("CRL hit: %v allocations, want at most 3", allocs)
	}
}
