package ocsp

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// referenceEntryHeaders is serveEntry's header block as it was formatted
// on every hit before the values were kept with the entry: three
// time.Format calls, a max-age truncated toward zero and floored at 0.
func referenceEntryHeaders(der []byte, thisUpdate, nextUpdate, now time.Time) http.Header {
	maxAge := int64(nextUpdate.Sub(now) / time.Second)
	if maxAge < 0 {
		maxAge = 0
	}
	sum := sha256.Sum256(der)
	h := http.Header{}
	h.Set("Content-Type", "application/ocsp-response")
	h.Set("ETag", `"`+hex.EncodeToString(sum[:16])+`"`)
	h.Set("Last-Modified", thisUpdate.UTC().Format(http.TimeFormat))
	h.Set("Expires", nextUpdate.UTC().Format(http.TimeFormat))
	h.Set("Date", now.UTC().Format(http.TimeFormat))
	h.Set("Cache-Control", "max-age="+strconv.FormatInt(maxAge, 10)+",public,no-transform,must-revalidate")
	h.Set("Content-Length", strconv.Itoa(len(der)))
	return h
}

// TestServeEntryHeadersMatchReference serves one entry at a sequence of
// instants, so the per-second memo is built, reused, rebuilt and rebuilt
// again within one second, and compares every header with the reference.
func TestServeEntryHeadersMatchReference(t *testing.T) {
	zone := time.FixedZone("UTC+9", 9*3600)
	for _, tc := range []struct {
		name     string
		validity time.Duration
		// offsets from thisUpdate at which the entry is served, in order.
		at []time.Duration
	}{
		{"whole window", 96 * time.Hour, []time.Duration{0, 0, time.Second, 30 * time.Minute, time.Hour + 30*time.Minute}},
		{"sub-second truncation", 10 * time.Second, []time.Duration{5 * time.Second, 5*time.Second + 300*time.Millisecond, 5*time.Second + 999*time.Millisecond, 5 * time.Second}},
		{"at and past nextUpdate", time.Hour, []time.Duration{time.Hour - time.Nanosecond, time.Hour, time.Hour + time.Second, 48 * time.Hour}},
		{"clock steps back and forth", 2 * time.Hour, []time.Duration{time.Hour, 0, time.Hour, 90 * time.Minute}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newCacheWorld(t, tc.validity)
			thisUpdate := testNow.In(zone) // a non-UTC clock must still print GMT
			w.now.Store(&thisUpdate)
			e, err := w.responder.lookup(NewCertID(w.ca, big.NewInt(31)), thisUpdate)
			if err != nil {
				t.Fatal(err)
			}
			if !e.thisUpdate.Equal(thisUpdate) || !e.nextUpdate.Equal(thisUpdate.Add(tc.validity)) {
				t.Fatalf("entry window %v..%v", e.thisUpdate, e.nextUpdate)
			}
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			for i, d := range tc.at {
				now := thisUpdate.Add(d)
				rec := httptest.NewRecorder()
				w.responder.serveEntry(rec, req, e, now)
				want := referenceEntryHeaders(e.der, e.thisUpdate, e.nextUpdate, now)
				if got := rec.Header(); !reflect.DeepEqual(got, want) {
					t.Errorf("hit %d at +%v:\n got %v\nwant %v", i, d, got, want)
				}
				if rec.Body.Len() != len(e.der) {
					t.Errorf("hit %d: body %d bytes, want %d", i, rec.Body.Len(), len(e.der))
				}
			}

			// A 304 carries the same block without Content-Length.
			now := thisUpdate.Add(tc.at[0])
			req.Header.Set("If-None-Match", e.etag[0])
			rec := httptest.NewRecorder()
			w.responder.serveEntry(rec, req, e, now)
			want := referenceEntryHeaders(e.der, e.thisUpdate, e.nextUpdate, now)
			want.Del("Content-Length")
			if got := rec.Header(); rec.Code != http.StatusNotModified || !reflect.DeepEqual(got, want) {
				t.Errorf("304: code %d\n got %v\nwant %v", rec.Code, got, want)
			}
		})
	}
}

// TestCachingResponderHitAllocations gates the GET hit path on a frozen
// clock, into a header map the writer reuses as net/http does per
// connection: the escaped-path check still allocates, formatting and
// header assignment no longer do (13 at the parent commit).
func TestCachingResponderHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newCacheWorld(t, 96*time.Hour)
	req := benchGETRequest(w.ca)
	rw := &discardRW{}
	w.responder.ServeHTTP(rw, req)
	allocs := testing.AllocsPerRun(200, func() {
		rw.reset()
		w.responder.ServeHTTP(rw, req)
	})
	if allocs > 3 {
		t.Errorf("pre-signed GET hit: %v allocations, want at most 3", allocs)
	}
	if st := w.responder.Stats(); st.Signs != 1 || st.Hits < 200 {
		t.Errorf("stats %+v: the gated path was not the hit path", st)
	}
	if got := rw.h.Get("Content-Length"); got == "" || rw.h.Get("Date") == "" {
		t.Errorf("hit wrote headers %v", rw.h)
	}
}
