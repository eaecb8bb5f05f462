package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime"
)

// generatedURLs is the cross product of the URL parts the CDN key has to
// tell apart or bring together: escaped and literal reserved characters,
// empty segments, empty and forced queries, scheme, host and port
// variants, userinfo, fragments, opaque forms, and the path-only URLs a
// real server parses off the request line.
func generatedURLs(t *testing.T) []*url.URL {
	t.Helper()
	prefixes := []string{
		"", "//h.test", "http://h.test", "HTTP://h.test", "https://h.test", "http://H.test",
		"http://h.test:80", "http://h.test:8080", "http://other.test", "http://u@h.test",
		"http://u:p@h.test", "http://u:@h.test", "http://", "http:", "mailto:",
	}
	paths := []string{
		"", "/", "/a", "/a/", "/a/b", "/a%2Fb", "/a%2fb", "//a", "/a//b", "/a;x=1", "/a%3Bx=1",
		"/a+b", "/a%2Bb", "/a=b", "/a%3Db", "/a b", "/a%20b", "/a:b", "a:b", "./a:b", "a/b", "/%41", "/A", "/a%3Fb", "/é", "/%C3%A9",
	}
	queries := []string{"", "?", "?x=1", "?x=1&y=%2F", "?x=1&y=/", "?a+b", "?a%20b", "??"}
	fragments := []string{"", "#", "#f", "#a%2Fb", "#a/b"}
	var out []*url.URL
	for _, prefix := range prefixes {
		for _, path := range paths {
			for _, query := range queries {
				for _, fragment := range fragments {
					s := prefix + path + query + fragment
					if u, err := url.Parse(s); err == nil {
						out = append(out, u)
					}
					if fragment == "" {
						if u, err := url.ParseRequestURI(s); err == nil {
							out = append(out, u)
						}
					}
				}
			}
		}
	}
	if len(out) < 5000 {
		t.Fatalf("only %d URLs generated", len(out))
	}
	return out
}

// TestCDNKeyMatchesURLString pins what replaced r.URL.String() as the
// cache key: equal field keys imply equal strings (a shortcut can never
// reach another URL's entry), and two URLs share an entry exactly when
// their strings are equal, whichever fields they arrived with.
func TestCDNKeyMatchesURLString(t *testing.T) {
	urls := generatedURLs(t)
	byKey := make(map[cdnKey]string)
	distinct := make(map[string]bool)
	spellings := 0
	for _, u := range urls {
		s, key := u.String(), cdnKeyOf(u)
		if prev, ok := byKey[key]; ok && prev != s {
			t.Fatalf("one key for %q and %q: %+v", prev, s, key)
		} else if !ok {
			byKey[key] = s
			spellings++
		}
		distinct[s] = true
	}
	if spellings == len(distinct) {
		t.Error("no two generated URLs differ in fields and agree in String(); the converse direction is untested")
	}

	var origin atomic.Int64
	cdn := NewCDN(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		origin.Add(1)
		w.Header().Set("Cache-Control", "max-age=60")
		io.WriteString(w, r.URL.String())
	}), func() time.Time { return simtime.CrawlStart })
	for pass := 0; pass < 2; pass++ {
		for _, u := range urls {
			rec := &recorder{}
			cdn.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}})
			if got, want := string(rec.body), u.String(); got != want {
				t.Fatalf("pass %d: %q answered with the entry of %q", pass, want, got)
			}
		}
		if got := origin.Load(); got != int64(len(distinct)) {
			t.Fatalf("pass %d: %d origin fetches for %d distinct strings", pass, got, len(distinct))
		}
	}
	if st := cdn.Stats(); st.Misses != int64(len(distinct)) || st.Hits != int64(2*len(urls)-len(distinct)) {
		t.Errorf("stats %+v for %d URLs, %d distinct", st, len(urls), len(distinct))
	}
}

// hotOrigin serves one fixed, cacheable response with a multi-valued
// header, and keeps what it sent for comparison.
type hotOrigin struct {
	header http.Header
	body   []byte
}

func newHotOrigin() *hotOrigin {
	body := make([]byte, 4096)
	for i := range body {
		body[i] = byte(i * 7)
	}
	return &hotOrigin{body: body, header: http.Header{
		"Cache-Control":  {"max-age=3600,public"},
		"Content-Type":   {"application/ocsp-response"},
		"Content-Length": {strconv.Itoa(len(body))},
		"Etag":           {`"hot"`},
		"Last-Modified":  {"Sun, 01 Mar 2015 00:00:00 GMT"},
		"X-Served-By":    {"edge-1", "edge-2"},
	}}
}

func (o *hotOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	for k, vs := range o.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Write(o.body)
}

// checkHit compares a hit's headers and body with what the origin sent
// and returns the Age it carried.
func (o *hotOrigin) checkHit(h http.Header, body []byte) (int, error) {
	if len(h) != len(o.header)+2 {
		return 0, fmt.Errorf("%d header keys, want %d: %v", len(h), len(o.header)+2, h)
	}
	for k, want := range o.header {
		if !reflect.DeepEqual(h[k], want) {
			return 0, fmt.Errorf("header %s = %q, want %q", k, h[k], want)
		}
	}
	if got := h["X-Cache"]; len(got) != 1 || got[0] != "HIT" {
		return 0, fmt.Errorf("X-Cache = %q", got)
	}
	if !bytes.Equal(body, o.body) {
		return 0, errors.New("body differs from the origin's bytes")
	}
	if len(h["Age"]) != 1 {
		return 0, fmt.Errorf("Age = %q", h["Age"])
	}
	return strconv.Atoi(h["Age"][0])
}

// TestHitSharesNothingMutable has several clients read every header and
// the whole body of one hot entry while the clock steps, which rebuilds
// the shared header view under them: under -race any write to a map or
// slice a client can still see is reported, and every client must see the
// origin's bytes with an Age that never runs backwards. The copying path
// (any writer that is not the fabric's) must then produce the same
// headers, in maps and slices of its own.
func TestHitSharesNothingMutable(t *testing.T) {
	const steps, clients = 200, 4
	clock := simtime.NewClock(simtime.CrawlStart)
	origin := newHotOrigin()
	cdn := NewCDN(origin, clock.Now)
	net := New()
	net.Register("hot.test", cdn)
	req, err := http.NewRequest(http.MethodGet, "http://hot.test/ocsp/abc%2Fdef", nil)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() (http.Header, []byte, error) {
		resp, err := net.RoundTrip(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.Header, body, err
	}
	if _, _, err := fetch(); err != nil { // the miss that fills the cache
		t.Fatal(err)
	}

	var stepped atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for done := false; !done; {
				done = stepped.Load() // one more round after the last step
				h, body, err := fetch()
				if err != nil {
					t.Error(err)
					return
				}
				age, err := origin.checkHit(h, body)
				if err != nil || age < last || age > steps {
					t.Errorf("age %d after %d: %v", age, last, err)
					return
				}
				last = age
			}
			if last != steps {
				t.Errorf("final Age %d, want %d", last, steps)
			}
		}()
	}
	for i := 0; i < steps; i++ {
		clock.Advance(time.Second)
	}
	stepped.Store(true)
	wg.Wait()

	byRef, _, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	cdn.ServeHTTP(rr, req)
	copied := rr.Result().Header
	if !reflect.DeepEqual(map[string][]string(copied), map[string][]string(byRef)) {
		t.Errorf("copying path headers %v, by-reference path %v", copied, byRef)
	}
	if !bytes.Equal(rr.Body.Bytes(), origin.body) {
		t.Error("copying path body differs")
	}
	// The copy is the caller's to scribble on; the cache must not notice.
	for _, vs := range copied {
		vs[0] = "scribbled"
	}
	rr.Body.Bytes()[0] ^= 0xff
	h, body, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.checkHit(h, body); err != nil {
		t.Errorf("after writing to a copied response: %v", err)
	}
	if st := cdn.Stats(); st.Misses != 1 {
		t.Errorf("stats %+v: want every request but the first a hit", st)
	}
}

// TestCDNHitAllocations gates what a cache hit costs the fabric: the one
// exchange allocation (the parent commit made 23).
func TestCDNHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := New()
	net.Register("hot.test", NewCDN(newHotOrigin(), func() time.Time { return simtime.CrawlStart }))
	req, err := http.NewRequest(http.MethodGet, "http://hot.test/ocsp/abc%2Fdef", nil)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		resp, err := net.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != 4096 {
			t.Fatalf("drained %d bytes: %v", n, err)
		}
		resp.Body.Close()
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 2 {
		t.Errorf("CDN hit through RoundTrip: %v allocations, want at most 2", allocs)
	}
}

// TestRouteChangesAreAtomic races Register and SetFailure against
// RoundTrip: a request sees a host's old route or its new one, and other
// hosts' routes survive every republication of the table.
func TestRouteChangesAreAtomic(t *testing.T) {
	net := New()
	net.Register("flip.test", helloHandler("A"))
	net.Register("stable.test", helloHandler("S"))
	get := func(host string) (string, error) {
		req, err := http.NewRequest(http.MethodGet, "http://"+host+"/", nil)
		if err != nil {
			return "", err
		}
		resp, err := net.RoundTrip(req)
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if body, err := get("stable.test"); err != nil || body != "S" {
					t.Errorf("stable.test: %q, %v", body, err)
					return
				}
				body, err := get("flip.test")
				var he *HostError
				switch {
				case err == nil && (body == "A" || body == "B"):
				case errors.As(err, &he) && he.Mode == FailUnresponsive:
				default:
					t.Errorf("flip.test: %q, %v", body, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		net.Register("flip.test", helloHandler("B"))
		net.SetFailure("flip.test", FailUnresponsive)
		net.Register(fmt.Sprintf("extra-%d.test", i%8), helloHandler("x"))
		net.Register("flip.test", helloHandler("A"))
		net.SetFailure("flip.test", FailNone)
	}
	stop.Store(true)
	wg.Wait()
	if body, err := get("flip.test"); err != nil || body != "A" {
		t.Errorf("after the last change: %q, %v", body, err)
	}
	if got := len(net.Hosts()); got != 10 {
		t.Errorf("%d hosts registered, want 10", got)
	}
}
