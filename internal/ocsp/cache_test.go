package ocsp

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/base64"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/x509x"
)

// cacheWorld is a CachingResponder over a counting source and a movable
// virtual clock.
type cacheWorld struct {
	ca        *x509x.Certificate
	key       *ecdsa.PrivateKey
	responder *CachingResponder
	now       atomic.Pointer[time.Time]
	// sourceCalls counts StatusFor invocations.
	sourceCalls atomic.Int64
	// revoked flips the source's answer for every serial.
	revoked atomic.Bool
}

func newCacheWorld(t *testing.T, validity time.Duration) *cacheWorld {
	t.Helper()
	caCert, caKey := newCA(t)
	w := &cacheWorld{ca: caCert, key: caKey}
	start := testNow
	w.now.Store(&start)
	w.responder = NewCachingResponder(&Responder{
		Source: SourceFunc(func(id CertID) SingleResponse {
			w.sourceCalls.Add(1)
			if w.revoked.Load() {
				return SingleResponse{Status: StatusRevoked, RevokedAt: *w.now.Load(), Reason: crl.ReasonKeyCompromise}
			}
			return SingleResponse{Status: StatusGood}
		}),
		Signer:   caCert,
		Key:      caKey,
		Now:      func() time.Time { return *w.now.Load() },
		Validity: validity,
	})
	return w
}

func (w *cacheWorld) advance(d time.Duration) {
	next := w.now.Load().Add(d)
	w.now.Store(&next)
}

// getPath returns the base64 GET path (unescaped form) for serial.
func (w *cacheWorld) getPath(serial int64) string {
	req := &Request{IDs: []CertID{NewCertID(w.ca, big.NewInt(serial))}}
	return base64.StdEncoding.EncodeToString(req.Marshal())
}

// query performs one request against the responder and parses the result.
func (w *cacheWorld) query(t *testing.T, method string, serial int64) (*Response, *httptest.ResponseRecorder) {
	t.Helper()
	var httpReq *http.Request
	if method == http.MethodGet {
		httpReq = httptest.NewRequest(http.MethodGet, "/"+url.PathEscape(w.getPath(serial)), nil)
	} else {
		body := (&Request{IDs: []CertID{NewCertID(w.ca, big.NewInt(serial))}}).Marshal()
		httpReq = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	w.responder.ServeHTTP(rec, httpReq)
	resp, err := ParseResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("%s serial %d: %v", method, serial, err)
	}
	return resp, rec
}

func TestCachingResponderStampede(t *testing.T) {
	w := newCacheWorld(t, 0)
	const goroutines = 64
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			method := http.MethodGet
			if g%2 == 1 {
				method = http.MethodPost
			}
			var httpReq *http.Request
			if method == http.MethodGet {
				httpReq = httptest.NewRequest(method, "/"+url.PathEscape(w.getPath(7)), nil)
			} else {
				body := (&Request{IDs: []CertID{NewCertID(w.ca, big.NewInt(7))}}).Marshal()
				httpReq = httptest.NewRequest(method, "/", bytes.NewReader(body))
			}
			start.Wait()
			rec := httptest.NewRecorder()
			w.responder.ServeHTTP(rec, httpReq)
			resp, err := ParseResponse(rec.Body.Bytes())
			if err != nil {
				errs <- err.Error()
				return
			}
			if len(resp.Responses) != 1 || resp.Responses[0].Status != StatusGood {
				errs <- "wrong status"
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := w.responder.Stats()
	if st.Signs != 1 {
		t.Errorf("signs = %d, want exactly 1 for a single (CertID, window) stampede", st.Signs)
	}
	if calls := w.sourceCalls.Load(); calls != 1 {
		t.Errorf("source calls = %d, want 1", calls)
	}
	if st.Hits+st.Misses != goroutines {
		t.Errorf("hits+misses = %d+%d, want %d", st.Hits, st.Misses, goroutines)
	}
}

func TestCachingResponderHitReturnsIdenticalDER(t *testing.T) {
	w := newCacheWorld(t, 0)
	first, rec1 := w.query(t, http.MethodGet, 9)
	second, rec2 := w.query(t, http.MethodPost, 9)
	if !bytes.Equal(first.Raw, second.Raw) {
		t.Error("GET and POST for the same serial should replay the identical pre-signed DER")
	}
	if rec1.Header().Get("ETag") == "" || rec1.Header().Get("ETag") != rec2.Header().Get("ETag") {
		t.Errorf("ETags differ: %q vs %q", rec1.Header().Get("ETag"), rec2.Header().Get("ETag"))
	}
	if st := w.responder.Stats(); st.Signs != 1 {
		t.Errorf("signs = %d", st.Signs)
	}
	if err := first.VerifySignature(w.ca); err != nil {
		t.Errorf("cached response signature: %v", err)
	}
}

func TestCachingResponderExpiryAtNextUpdate(t *testing.T) {
	w := newCacheWorld(t, time.Hour)
	resp, _ := w.query(t, http.MethodGet, 3)
	firstThis := resp.Responses[0].ThisUpdate

	// Inside the window: replay, no new signature.
	w.advance(30 * time.Minute)
	resp, _ = w.query(t, http.MethodGet, 3)
	if !resp.Responses[0].ThisUpdate.Equal(firstThis) {
		t.Error("within-window query should replay the original response")
	}
	if st := w.responder.Stats(); st.Signs != 1 {
		t.Errorf("signs = %d after within-window hit", st.Signs)
	}

	// Past nextUpdate: the entry is stale and must be re-signed.
	w.advance(31 * time.Minute)
	resp, _ = w.query(t, http.MethodGet, 3)
	if st := w.responder.Stats(); st.Signs != 2 {
		t.Errorf("signs = %d after expiry, want 2", st.Signs)
	}
	if !resp.Responses[0].ThisUpdate.After(firstThis) {
		t.Errorf("re-signed thisUpdate %v not after %v", resp.Responses[0].ThisUpdate, firstThis)
	}
	if !resp.Responses[0].CurrentAt(*w.now.Load()) {
		t.Error("re-signed response should be current at the virtual now")
	}
}

func TestCachingResponderEvict(t *testing.T) {
	w := newCacheWorld(t, 0)
	resp, _ := w.query(t, http.MethodGet, 12)
	if resp.Responses[0].Status != StatusGood {
		t.Fatalf("status = %v", resp.Responses[0].Status)
	}

	// Flip the source to revoked. Without eviction the cache would keep
	// serving Good.
	w.revoked.Store(true)
	resp, _ = w.query(t, http.MethodGet, 12)
	if resp.Responses[0].Status != StatusGood {
		t.Fatal("pre-eviction query should still be the cached Good — eviction, not source reads, invalidates")
	}

	w.responder.EvictCertID(NewCertID(w.ca, big.NewInt(12)))
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		resp, _ = w.query(t, method, 12)
		if resp.Responses[0].Status != StatusRevoked {
			t.Errorf("%s after evict: status = %v, want revoked", method, resp.Responses[0].Status)
		}
	}
	st := w.responder.Stats()
	if st.Evictions != 1 || st.Signs != 2 {
		t.Errorf("evictions=%d signs=%d, want 1 and 2", st.Evictions, st.Signs)
	}
}

func TestCachingResponderFlush(t *testing.T) {
	w := newCacheWorld(t, 0)
	w.query(t, http.MethodGet, 1)
	w.query(t, http.MethodGet, 2)
	w.responder.Flush()
	w.query(t, http.MethodGet, 1)
	if st := w.responder.Stats(); st.Signs != 3 {
		t.Errorf("signs = %d after flush, want 3", st.Signs)
	}
}

func TestCachingResponderNonceBypass(t *testing.T) {
	w := newCacheWorld(t, 0)
	w.responder.EchoNonce = true
	srv := httptest.NewServer(w.responder)
	defer srv.Close()
	client := &Client{}
	for _, nonce := range [][]byte{{1, 2, 3}, {4, 5, 6}} {
		resp, err := client.Fetch(srv.URL, &Request{IDs: []CertID{NewCertID(w.ca, big.NewInt(5))}, Nonce: nonce})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Nonce, nonce) {
			t.Errorf("nonce %x echoed as %x", nonce, resp.Nonce)
		}
	}
	st := w.responder.Stats()
	if st.Bypasses != 2 || st.Signs != 2 {
		t.Errorf("bypasses=%d signs=%d, want 2 and 2 (nonced requests are unique)", st.Bypasses, st.Signs)
	}
}

func TestCachingResponderMultiIDBypass(t *testing.T) {
	w := newCacheWorld(t, 0)
	srv := httptest.NewServer(w.responder)
	defer srv.Close()
	client := &Client{}
	for i := 0; i < 2; i++ {
		srs, err := client.CheckBatch(srv.URL, w.ca, []*big.Int{big.NewInt(1), big.NewInt(2)})
		if err != nil {
			t.Fatal(err)
		}
		if len(srs) != 2 || srs[0].Status != StatusGood || srs[1].Status != StatusGood {
			t.Fatalf("batch statuses: %+v", srs)
		}
	}
	st := w.responder.Stats()
	if st.Bypasses != 2 || st.Signs != 2 {
		t.Errorf("bypasses=%d signs=%d: multi-ID responses are jointly signed and must not be cached", st.Bypasses, st.Signs)
	}
}

func TestCachingResponderHTTPCacheHeaders(t *testing.T) {
	w := newCacheWorld(t, 2*time.Hour)
	_, rec := w.query(t, http.MethodGet, 21)
	h := rec.Header()
	if ct := h.Get("Content-Type"); ct != "application/ocsp-response" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := h.Get("Cache-Control"); cc != "max-age=7200,public,no-transform,must-revalidate" {
		t.Errorf("Cache-Control = %q", cc)
	}
	if h.Get("ETag") == "" || h.Get("Expires") == "" || h.Get("Last-Modified") == "" || h.Get("Content-Length") == "" {
		t.Errorf("missing cacheability headers: %v", h)
	}
	wantExpires := testNow.Add(2 * time.Hour).UTC().Format(http.TimeFormat)
	if exp := h.Get("Expires"); exp != wantExpires {
		t.Errorf("Expires = %q, want %q", exp, wantExpires)
	}

	// A conditional request matching the ETag revalidates without a body.
	httpReq := httptest.NewRequest(http.MethodGet, "/"+url.PathEscape(w.getPath(21)), nil)
	httpReq.Header.Set("If-None-Match", h.Get("ETag"))
	rec2 := httptest.NewRecorder()
	w.responder.ServeHTTP(rec2, httpReq)
	if rec2.Code != http.StatusNotModified || rec2.Body.Len() != 0 {
		t.Errorf("If-None-Match: code=%d len=%d, want 304 with empty body", rec2.Code, rec2.Body.Len())
	}
}

func TestErrorResponseDERInterned(t *testing.T) {
	for _, status := range []ResponseStatus{RespMalformedRequest, RespInternalError, RespTryLater, RespUnauthorized} {
		a, b := ErrorResponseDER(status), ErrorResponseDER(status)
		if &a[0] != &b[0] {
			t.Errorf("%v: encodings not interned", status)
		}
		resp, err := ParseResponse(a)
		if err != nil || resp.RespStatus != status {
			t.Errorf("%v: round trip %v, %v", status, resp, err)
		}
		if !bytes.Equal(a, createErrorResponse(status)) {
			t.Errorf("%v: interned bytes diverge from createErrorResponse", status)
		}
	}
	// Uncommon statuses still encode.
	if resp, err := ParseResponse(ErrorResponseDER(RespSigRequired)); err != nil || resp.RespStatus != RespSigRequired {
		t.Error("fallback encoding broken")
	}
}

func TestWriteErrorUsesInternedDER(t *testing.T) {
	w := newCacheWorld(t, 0)
	for _, target := range []http.Handler{w.responder, w.responder.Responder} {
		rec := httptest.NewRecorder()
		target.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/!!!not-base64!!!", nil))
		if !bytes.Equal(rec.Body.Bytes(), ErrorResponseDER(RespMalformedRequest)) {
			t.Errorf("%T: malformed-request body is not the interned encoding", target)
		}
	}
}

// TestResponderGETAcceptsRawAndEscapedBase64 covers the transport fix:
// clients differ on whether the base64 request is percent-escaped or
// appended raw ('+', '/', '=' included); the responder must accept both.
func TestResponderGETAcceptsRawAndEscapedBase64(t *testing.T) {
	caCert, caKey := newCA(t)
	for _, cached := range []bool{false, true} {
		plain := &Responder{
			Source: SourceFunc(func(CertID) SingleResponse { return SingleResponse{Status: StatusGood} }),
			Signer: caCert,
			Key:    caKey,
			Now:    func() time.Time { return testNow },
		}
		var handler http.Handler = plain
		if cached {
			handler = NewCachingResponder(plain)
		}
		// Find a serial whose encoded request contains '+' so the raw
		// form would break a strict unescape-only decoder.
		var encoded string
		for serial := int64(1); ; serial++ {
			req := &Request{IDs: []CertID{NewCertID(caCert, big.NewInt(serial))}}
			encoded = base64.StdEncoding.EncodeToString(req.Marshal())
			if strings.ContainsAny(encoded, "+") {
				break
			}
			if serial > 4096 {
				t.Fatal("no serial produced base64 with '+'")
			}
		}
		for name, path := range map[string]string{
			"raw":     "/" + encoded,
			"escaped": "/" + url.PathEscape(encoded),
		} {
			httpReq := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httpReq)
			resp, err := ParseResponse(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("cached=%v %s: %v", cached, name, err)
			}
			if resp.RespStatus != RespSuccessful {
				t.Errorf("cached=%v %s form rejected: %v", cached, name, resp.RespStatus)
			}
		}
	}
}

// legacyGETDER is the GET decoding the responder used before it read
// URL.Path: the unescaped escaped path, else the escaped path itself.
func legacyGETDER(u *url.URL) ([]byte, error) {
	seg := strings.TrimPrefix(u.EscapedPath(), "/")
	if unescaped, err := url.PathUnescape(seg); err == nil {
		if der, err := base64.StdEncoding.DecodeString(unescaped); err == nil {
			return der, nil
		}
	}
	return base64.StdEncoding.DecodeString(seg)
}

// TestTransportKeyDecidesDER: GET requests with one transport key decode
// to one DER (or fail alike), over the spellings clients and hand-built
// URLs give one request, and each decodes as the escaped-path decoder
// did. "+/+/AQ==" holds every base64 character a path can escape.
func TestTransportKeyDecidesDER(t *testing.T) {
	const enc = "+/+/AQ=="
	want := []byte{0xfb, 0xff, 0xbf, 0x01}
	target := func(s string) *url.URL { return httptest.NewRequest(http.MethodGet, s, nil).URL }
	cases := []struct {
		name string
		u    *url.URL
		ok   bool // decodes to want
	}{
		{"raw", target("/" + enc), true},
		{"path-escaped", target("/" + url.PathEscape(enc)), true},
		{"all-escaped", target("/%2B%2F%2B%2FAQ%3D%3D"), true},
		{"mixed", target("/%2B/+%2FAQ%3D="), true},
		{"plus-as-%2B", target("/%2B/%2B/AQ=="), true},
		{"rawpath-disagrees", &url.URL{Path: "/" + enc, RawPath: "/AAAA"}, true},
		{"rawpath-invalid-escape", &url.URL{Path: "/" + enc, RawPath: "/%zz"}, true},
		{"other-request", target("/AAAA"), false},
		{"other-escaped", target("/%41AAA"), false},
		{"no-padding", target("/+/+/AQ"), false},
		{"invalid-escape-in-path", &url.URL{Path: "/+/+/AQ%zz"}, false},
		{"space-for-plus", target("/%20/%20/AQ=="), false},
		{"empty", target("/"), false},
	}
	type decoded struct {
		name string
		der  []byte
		err  bool
	}
	byKey := make(map[string]decoded)
	for _, c := range cases {
		httpReq := &http.Request{Method: http.MethodGet, URL: c.u}
		key, keyed := transportKey(httpReq)
		if !keyed {
			t.Fatalf("%s: GET not keyed", c.name)
		}
		der, err := requestDERFromHTTP(httpReq)
		if got := err == nil && bytes.Equal(der, want); got != c.ok {
			t.Errorf("%s: decoded %x (err %v), want the request: %v", c.name, der, err, c.ok)
		}
		old, oldErr := legacyGETDER(c.u)
		if (err != nil) != (oldErr != nil) || !bytes.Equal(der, old) {
			t.Errorf("%s: decoded %x (err %v), the escaped-path decoder %x (err %v)", c.name, der, err, old, oldErr)
		}
		d := decoded{name: c.name, der: der, err: err != nil}
		if prev, seen := byKey[key]; seen && (prev.err != d.err || !bytes.Equal(prev.der, d.der)) {
			t.Errorf("key %q: %s decodes to %x (err %v), %s to %x (err %v)", key, prev.name, prev.der, prev.err, d.name, d.der, d.err)
		}
		byKey[key] = d
	}
	if got := byKey[enc]; got.err || !bytes.Equal(got.der, want) {
		t.Errorf("every spelling of the request should share key %q, found %+v", enc, got)
	}
}

func TestCachingResponderConcurrentMixedSerials(t *testing.T) {
	w := newCacheWorld(t, 0)
	const goroutines = 32
	const serials = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				serial := int64(i%serials + 1)
				method := http.MethodGet
				if (g+i)%3 == 0 {
					method = http.MethodPost
				}
				var httpReq *http.Request
				if method == http.MethodGet {
					httpReq = httptest.NewRequest(method, "/"+url.PathEscape(w.getPath(serial)), nil)
				} else {
					body := (&Request{IDs: []CertID{NewCertID(w.ca, big.NewInt(serial))}}).Marshal()
					httpReq = httptest.NewRequest(method, "/", bytes.NewReader(body))
				}
				rec := httptest.NewRecorder()
				w.responder.ServeHTTP(rec, httpReq)
				resp, err := ParseResponse(rec.Body.Bytes())
				if err != nil || resp.RespStatus != RespSuccessful {
					t.Errorf("serial %d: %v %v", serial, err, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := w.responder.Stats(); st.Signs != serials {
		t.Errorf("signs = %d, want one per distinct serial (%d)", st.Signs, serials)
	}
}

func TestCachingResponderStillRejectsGarbage(t *testing.T) {
	w := newCacheWorld(t, 0)
	srv := httptest.NewServer(w.responder)
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/ocsp-request", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	parsed, err := ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RespStatus != RespMalformedRequest {
		t.Errorf("status = %v", parsed.RespStatus)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d", dresp.StatusCode)
	}
}
