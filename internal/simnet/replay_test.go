package simnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

// replayWorld is the fixture of TestReplayAccountingPinned: one CDN-fronted
// host, one plain host, one unresponsive host, every body a fixed size.
type replayWorld struct {
	net   *Network
	cdn   *CDN
	clock *simtime.Clock
}

func newReplayWorld() *replayWorld {
	w := &replayWorld{net: New(), clock: simtime.NewClock(simtime.CrawlStart)}
	w.net.Cost = CostModel{RTT: 10 * time.Millisecond, Bandwidth: 1e6, OriginRTT: 50 * time.Millisecond}
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	origin := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			rw.Write(body(100))
			return
		}
		switch r.URL.Path {
		case "/a":
			rw.Header().Set("Cache-Control", "max-age=3600,public")
			rw.Header().Set("ETag", `"a"`)
			rw.Write(body(500))
		case "/b":
			rw.Header().Set("Cache-Control", "max-age=60")
			rw.Write(body(1200))
		case "/nocache":
			rw.Header().Set("Cache-Control", "no-store")
			rw.Write(body(300))
		default:
			http.NotFound(rw, r)
		}
	})
	w.cdn = NewCDN(origin, w.clock.Now)
	w.net.Register("cdn.test", w.cdn)
	w.net.Register("plain.test", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Write(body(700))
	}))
	w.net.Register("down.test", http.NotFoundHandler())
	w.net.SetFailure("down.test", FailUnresponsive)
	return w
}

// replayReq is one scripted request and the outcome it must have.
type replayReq struct {
	method, url string
	inm         string // If-None-Match
	cancelled   bool
	status      int         // expected status; 0 when fail is set
	fail        FailureMode // expected HostError mode
}

func (w *replayWorld) do(rr replayReq) error {
	ctx := context.Background()
	if rr.cancelled {
		c, cancel := context.WithCancel(ctx)
		cancel()
		ctx = c
	}
	var body io.Reader
	if rr.method == http.MethodPost {
		body = strings.NewReader("query")
	}
	req, err := http.NewRequestWithContext(ctx, rr.method, rr.url, body)
	if err != nil {
		return err
	}
	if rr.inm != "" {
		req.Header.Set("If-None-Match", rr.inm)
	}
	resp, err := w.net.RoundTrip(req)
	switch {
	case rr.cancelled:
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("%s: cancelled context gave %v", rr.url, err)
		}
		return nil
	case rr.fail != FailNone:
		var he *HostError
		if !errors.As(err, &he) || he.Mode != rr.fail {
			return fmt.Errorf("%s: error %v, want %v", rr.url, err, rr.fail)
		}
		return nil
	case err != nil:
		return fmt.Errorf("%s: %v", rr.url, err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != rr.status || n != resp.ContentLength {
		return fmt.Errorf("%s: status %d (want %d), read %d of %d, err %v", rr.url, resp.StatusCode, rr.status, n, resp.ContentLength, err)
	}
	return nil
}

// each sends every request of reqs, rounds times over, from the given
// number of goroutines. Every request in a call has an outcome that does
// not depend on what else runs beside it, so the accounting it leaves is
// the same multiset at any worker count.
func (w *replayWorld) each(t *testing.T, workers, rounds int, reqs ...replayReq) {
	t.Helper()
	var all []replayReq
	for i := 0; i < rounds; i++ {
		all = append(all, reqs...)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(all); i += workers {
				if err := w.do(all[i]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// fingerprint renders everything the fabric and the CDN account.
func (w *replayWorld) fingerprint() string {
	var sb strings.Builder
	stats := func(name string, s Stats) {
		fmt.Fprintf(&sb, "%s: requests=%d bytes=%d modelled=%v latency=%+v\n", name, s.Requests, s.BytesReceived, s.ModelledTime, s.Latency)
	}
	stats("total", w.net.TotalStats())
	fmt.Fprintf(&sb, "latency digest=%016x\n", w.net.LatencySnapshot().Digest())
	fmt.Fprintf(&sb, "stream digest=%016x\n", w.net.StreamDigest())
	fmt.Fprintf(&sb, "cdn=%+v\n", w.cdn.Stats())
	return sb.String()
}

// replayScript runs the fixed request script and returns the fingerprint
// before ResetStats and the one of the short tail after it.
func replayScript(t *testing.T, workers int) (before, after string) {
	t.Helper()
	w := newReplayWorld()
	get := func(path string, status int) replayReq {
		return replayReq{method: http.MethodGet, url: "http://cdn.test" + path, status: status}
	}
	a, b := get("/a", http.StatusOK), get("/b", http.StatusOK)

	w.each(t, 1, 1, a, b) // two cold misses fill the cache
	w.each(t, workers, 16,
		a, b, // hits
		replayReq{method: http.MethodGet, url: "http://cdn.test/a", inm: `"a"`, status: http.StatusNotModified},
		replayReq{method: http.MethodGet, url: "http://cdn.test/a", inm: `"other"`, status: http.StatusOK},
		replayReq{method: http.MethodPost, url: "http://cdn.test/a", status: http.StatusOK}, // bypass
		get("/missing", http.StatusNotFound), // never stored
		get("/nocache", http.StatusOK),       // uncacheable
		replayReq{method: http.MethodGet, url: "http://plain.test/x", status: http.StatusOK},
		replayReq{method: http.MethodGet, url: "http://nowhere.test/x", fail: FailNXDomain},
		replayReq{method: http.MethodGet, url: "http://down.test/x", fail: FailUnresponsive},
		replayReq{method: http.MethodGet, url: "http://cdn.test/a", cancelled: true},
	)
	w.clock.Advance(2 * time.Minute) // /b has expired, /a has not
	w.each(t, 1, 1, b)               // refetched
	w.each(t, workers, 16, a, b)
	w.cdn.Flush()
	w.each(t, 1, 1, a) // a miss again
	w.each(t, workers, 16, a)
	before = w.fingerprint()

	w.net.ResetStats()
	if total := w.net.TotalStats(); total.Requests != 0 || total.Latency.Count != 0 || w.net.StreamDigest() != 0 {
		t.Errorf("ResetStats left %+v, digest %x", total, w.net.StreamDigest())
	}
	w.each(t, workers, 8, a, get("/missing", http.StatusNotFound))
	return before, w.fingerprint()
}

// The constants are what the script produced at the commit before the
// fabric's hit path was rewritten (f014852), serially; the accounting is
// defined by the multiset of requests, so 8 goroutines must leave the same.
const (
	replayPinnedBefore = `total: requests=180 bytes=91704 modelled=3.691704s latency={Count:180 MeanNs:2.0509466666666668e+07 P50Ns:10485760 P90Ns:60293120 P99Ns:60817408 P999Ns:60817408 MaxNs:61200000}
latency digest=d0f4b9f9677151fa
stream digest=22001c992ead9068
cdn={Hits:112 Misses:36 Bypasses:16 NotModified:16}
`
	replayPinnedAfter = `total: requests=16 bytes=4152 modelled=564.152ms latency={Count:16 MeanNs:3.52595e+07 P50Ns:10485760 P90Ns:59768832 P99Ns:59768832 P999Ns:59768832 MaxNs:60019000}
latency digest=e24d2e13d1c17c15
stream digest=e38b2e206d80b440
cdn={Hits:120 Misses:44 Bypasses:16 NotModified:16}
`
)

func TestReplayAccountingPinned(t *testing.T) {
	for _, workers := range []int{1, 8} {
		before, after := replayScript(t, workers)
		if before != replayPinnedBefore {
			t.Errorf("workers=%d: accounting before ResetStats:\n%s\nwant:\n%s", workers, before, replayPinnedBefore)
		}
		if after != replayPinnedAfter {
			t.Errorf("workers=%d: accounting after ResetStats:\n%s\nwant:\n%s", workers, after, replayPinnedAfter)
		}
	}
}
