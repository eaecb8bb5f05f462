package scenario

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/fleet"
	"repro/internal/ocsp"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

func testEngine() (*Engine, *simnet.Network, *simtime.Clock) {
	net := simnet.New()
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	eng := New("test", 7)
	eng.Attach(net, clock)
	return eng, net, clock
}

func TestPhaseBracketsFabricTraffic(t *testing.T) {
	eng, net, clock := testEngine()
	net.Cost = simnet.CostModel{RTT: 10 * time.Millisecond, Bandwidth: 1e6}
	net.Register("a.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 1000))
	}))
	client := eng.Client()

	fetch := func(n int) error {
		for i := 0; i < n; i++ {
			resp, err := client.Get("http://a.test/x")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil
	}

	p1, err := eng.Phase("first", func(p *Phase) error {
		p.NetDeterministic()
		p.AddOps(3)
		return fetch(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Phase("second", func(p *Phase) error {
		p.NetDeterministic()
		p.AddOps(2)
		clock.Advance(time.Hour)
		return fetch(2)
	})
	if err != nil {
		t.Fatal(err)
	}

	if p1.NetRequests != 3 || p2.NetRequests != 2 {
		t.Errorf("net requests = %d/%d, want 3/2", p1.NetRequests, p2.NetRequests)
	}
	if p1.Net.Count != 3 || p2.Net.Count != 2 {
		t.Errorf("net histogram counts = %d/%d, want 3/2", p1.Net.Count, p2.Net.Count)
	}
	// 10ms RTT + 1000B at 1MB/s = 11ms per request, exactly.
	if want := int64(11 * time.Millisecond); p1.Net.MaxNs != want {
		t.Errorf("p1 virtual max = %v, want %v", time.Duration(p1.Net.MaxNs), 11*time.Millisecond)
	}
	if p1.VirtualMS != 0 {
		t.Errorf("p1 advanced virtual clock: %v ms", p1.VirtualMS)
	}
	if want := float64(time.Hour/time.Millisecond) * 1.0; p2.VirtualMS != want {
		t.Errorf("p2 virtual advance = %v ms, want %v", p2.VirtualMS, want)
	}
	if p1.NetDigest == "" || p2.NetDigest == "" || p1.NetDigest == p2.NetDigest {
		t.Errorf("net digests = %q / %q, want distinct non-empty", p1.NetDigest, p2.NetDigest)
	}
}

func TestPhaseWallMergesSerialAndSharded(t *testing.T) {
	eng, _, _ := testEngine()
	res, err := eng.Phase("mixed", func(p *Phase) error {
		p.Record(5 * time.Millisecond)
		sh := p.Sharded(4)
		for i := 0; i < 8; i++ {
			sh.Shard(i).Record(time.Duration(i+1) * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall.Count != 9 {
		t.Errorf("wall count = %d, want 9 (1 serial + 8 sharded)", res.Wall.Count)
	}
	if res.Wall.MaxNs != int64(8*time.Millisecond) {
		t.Errorf("wall max = %v", time.Duration(res.Wall.MaxNs))
	}
}

func TestPhaseErrorKeepsPartialResult(t *testing.T) {
	eng, _, _ := testEngine()
	boom := fmt.Errorf("boom")
	res, err := eng.Phase("fails", func(p *Phase) error {
		p.AddOps(1)
		return boom
	})
	if err == nil {
		t.Fatal("phase error swallowed")
	}
	if res == nil || res.Ops != 1 {
		t.Fatalf("partial result not kept: %+v", res)
	}
	if got := eng.Report().Phase("fails"); got == nil {
		t.Error("failed phase missing from report")
	}
}

func TestReportDigestIgnoresWallTime(t *testing.T) {
	run := func(sleep time.Duration) uint64 {
		eng, net, _ := testEngine()
		net.Register("b.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok"))
		}))
		_, err := eng.Phase("p", func(p *Phase) error {
			p.NetDeterministic()
			p.MixDigest(42)
			p.AddOps(1)
			if sleep > 0 {
				time.Sleep(sleep)
			}
			p.Record(sleep)
			resp, err := eng.Client().Get("http://b.test/")
			if err != nil {
				return err
			}
			resp.Body.Close()
			return nil
		})
		if err != nil {
			panic(err)
		}
		return eng.Report().Digest()
	}
	if a, b := run(0), run(3*time.Millisecond); a != b {
		t.Errorf("report digest depends on wall time: %016x vs %016x", a, b)
	}
}

// quickHeartbleed is the scaled-down config the determinism and race
// tests run; small enough for -race, large enough that every phase does
// real work.
func quickHeartbleed(workers int) HeartbleedConfig {
	return HeartbleedConfig{
		Clients:         192,
		Certs:           96,
		EvalsPerClient:  4,
		Workers:         workers,
		BrownoutChecks:  64,
		StampedeClients: 32,
		Seed:            3,
	}
}

// TestHeartbleedDeterminism is the tentpole invariant: the same seed
// must produce identical phase digests, fleet tallies, and virtual
// service-time histogram bucket counts whether the fleet runs on one
// worker or many.
func TestHeartbleedDeterminism(t *testing.T) {
	base, err := Heartbleed(quickHeartbleed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Heartbleed(quickHeartbleed(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Digest != base.Digest {
			t.Errorf("workers=%d: scenario digest %s != %s", workers, got.Digest, base.Digest)
		}
		for _, name := range []string{"baseline-cold", "baseline-warm", "heartbleed-storm",
			"stale-window", "brownout", "convergence"} {
			a, b := base.Report.Phase(name), got.Report.Phase(name)
			if a == nil || b == nil {
				t.Fatalf("phase %s missing", name)
			}
			if a.Digest != b.Digest {
				t.Errorf("workers=%d: phase %s digest %s != %s", workers, name, b.Digest, a.Digest)
			}
			if a.Ops != b.Ops {
				t.Errorf("workers=%d: phase %s ops %d != %d", workers, name, b.Ops, a.Ops)
			}
			if a.NetDigest != b.NetDigest {
				t.Errorf("workers=%d: phase %s net digest %s != %s", workers, name, b.NetDigest, a.NetDigest)
			}
		}
		if got.StaleWindowGood != base.StaleWindowGood ||
			got.ConvergenceVirtualHours != base.ConvergenceVirtualHours ||
			got.BrownoutRejects != base.BrownoutRejects {
			t.Errorf("workers=%d: scenario quantities diverged: %+v vs %+v", workers, got, base)
		}
	}
}

// TestHeartbleedShape checks the scenario tells the paper's story: a
// full stale window right after the storm, hard-fail rejections under
// brownout, convergence bounded by the 96h OCSP validity, and zero
// stale-Good at the end. On the default virtual schedule the
// convergence time is pinned exactly: it is a pure function of the
// validity windows and the watch stride, so it must not move with the
// population, the worker count or the host.
func TestHeartbleedShape(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       HeartbleedConfig
		wantHours float64 // 0: bounded only
	}{
		{"quick", quickHeartbleed(4), 0},
		{"default-schedule", HeartbleedConfig{Clients: 4096, Certs: 512, EvalsPerClient: 2,
			Workers: runtime.GOMAXPROCS(0), StampedeClients: 256, Seed: 1}, 97.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Heartbleed(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.StormRevocations == 0 {
				t.Fatal("storm revoked nothing")
			}
			if res.StaleWindowGood == 0 {
				t.Error("no stale window: revoked chains should still be accepted on cached Good")
			}
			if res.StaleGoodFinal != 0 {
				t.Errorf("stale-Good after convergence = %d, want 0", res.StaleGoodFinal)
			}
			// Convergence is bounded by the longest validity cached before
			// the storm: OCSP responses carry 96h. The watch must finish
			// after that expiry, within one step of slack past it.
			if res.ConvergenceVirtualHours < 90 || res.ConvergenceVirtualHours > 120 {
				t.Errorf("convergence at %.1f virtual hours, want within (90, 120]", res.ConvergenceVirtualHours)
			}
			if tc.wantHours != 0 && res.ConvergenceVirtualHours != tc.wantHours {
				t.Errorf("converged after %v virtual hours, want exactly %v", res.ConvergenceVirtualHours, tc.wantHours)
			}
			if res.Stampede.Fetches != 1 {
				t.Errorf("stampede fetches = %d, want singleflight collapse to 1", res.Stampede.Fetches)
			}
			warm := res.Report.Phase("baseline-warm")
			if warm.NetRequests != 0 {
				t.Errorf("warm fleet made %d network requests, want 0", warm.NetRequests)
			}
			if warm.Wall.Count == 0 || warm.Wall.P99Ns == 0 {
				t.Errorf("warm wall histogram empty: %+v", warm.Wall)
			}
			brown := res.Report.Phase("brownout")
			if brown.Wall.P999Ns == 0 {
				t.Errorf("brownout p999 missing: %+v", brown.Wall)
			}
			if res.BrownoutRejects == 0 {
				t.Error("brownout at 80% availability rejected nothing")
			}
			cold := res.Report.Phase("baseline-cold")
			if cold.NetRequests == 0 || cold.Net.Count == 0 {
				t.Error("cold fleet traffic not attributed to its phase")
			}
		})
	}
}

// TestEngineFleetMatchesDirectRun: a fleet run bracketed by engine
// phases produces exactly the digests and tallies a direct run of the
// same world yields, and the phases carry one latency sample per
// verdict.
func TestEngineFleetMatchesDirectRun(t *testing.T) {
	cfg := fleet.Config{Browsers: 32, Certs: 96, EvalsPerBrowser: 16,
		RevokedFraction: 0.1, CRLOnlyFraction: 0.3, Seed: 7}
	const workers = 2
	w, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := New("fleet", cfg.Seed)
	eng.Attach(w.Net, w.Clock)
	viaEngine := make(map[string]fleet.Result)
	store := browser.NewCache()
	for _, name := range []string{"cold", "warm"} {
		if _, err := eng.Phase(name, func(p *Phase) error {
			res, err := w.Run(fleet.RunOptions{Workers: workers, Store: store, Latency: p.Sharded(workers)})
			p.AddOps(res.Verdicts)
			viaEngine[name] = res
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	direct, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	directStore := browser.NewCache()
	for _, name := range []string{"cold", "warm"} {
		want, err := direct.Run(fleet.RunOptions{Workers: workers, Store: directStore})
		if err != nil {
			t.Fatal(err)
		}
		got := viaEngine[name]
		if got.Digest != want.Digest || got.Verdicts != want.Verdicts ||
			got.Rejects != want.Rejects || got.RevocationsDetected != want.RevocationsDetected {
			t.Errorf("%s: engine run %x %d/%d/%d, direct %x %d/%d/%d", name,
				got.Digest, got.Verdicts, got.Rejects, got.RevocationsDetected,
				want.Digest, want.Verdicts, want.Rejects, want.RevocationsDetected)
		}
		p := eng.Report().Phase(name)
		if p.Wall.Count != uint64(got.Verdicts) || p.Wall.P99Ns <= 0 {
			t.Errorf("%s: wall histogram %+v, want one sample per verdict (%d)", name, p.Wall, got.Verdicts)
		}
	}
	if n := viaEngine["warm"].NetRequests; n != 0 {
		t.Errorf("warm engine run made %d network requests", n)
	}
}

// TestEngineRunMatchesDirectReplay: bracketing an OCSP replay in an
// engine phase leaves the caching responder's behaviour exactly as a
// direct replay sees it (one signature per distinct serial, then pure
// hits) and records one latency sample per request.
func TestEngineRunMatchesDirectReplay(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	authority, err := ca.NewRoot(ca.Config{Name: "LoadCA", CRLBaseURL: "http://crl.load.test/crl",
		OCSPBaseURL: "http://ocsp.load.test/ocsp", Clock: clock.Now, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const serials, requests = 16, 128
	records := make([]*ca.Record, serials)
	for i := range records {
		records[i] = authority.IssueRecord(ca.IssueOptions{CommonName: fmt.Sprintf("load-%d.test", i),
			NotBefore: clock.Now(), NotAfter: clock.Now().AddDate(1, 0, 0)})
	}
	clock.Advance(time.Hour)
	if err := authority.Revoke(records[0].Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 1, serials-1)
	seq := make([][]byte, requests)
	for i := range seq {
		id := ocsp.NewCertID(authority.Certificate(), records[zipf.Uint64()].Serial)
		seq[i] = (&ocsp.Request{IDs: []ocsp.CertID{id}}).Marshal()
	}
	replay := func(h http.Handler, i int) {
		req := httptest.NewRequest(http.MethodPost, "http://ocsp.load.test/", bytes.NewReader(seq[i]))
		req.Header.Set("Content-Type", "application/ocsp-request")
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	direct := authority.CachingResponder()
	for pass := 0; pass < 2; pass++ {
		for i := range seq {
			replay(direct, i)
		}
	}

	cached := authority.CachingResponder()
	for i := range seq {
		replay(cached, i)
	}
	before := cached.Stats()
	eng := New("ocsp", 42)
	warm, err := eng.Phase("warm", func(p *Phase) error {
		for i := range seq {
			t0 := time.Now()
			replay(cached, i)
			p.Record(time.Since(t0))
		}
		p.AddOps(len(seq))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := cached.Stats()
	if after.Signs != direct.Stats().Signs {
		t.Errorf("engine replay signed %d times, direct %d", after.Signs, direct.Stats().Signs)
	}
	if hits := after.Hits - before.Hits; hits != requests || after.Misses != before.Misses {
		t.Errorf("warm phase: %d hits, %d misses, want %d hits and none missed",
			hits, after.Misses-before.Misses, requests)
	}
	if warm.Ops != requests || warm.Wall.Count != requests || warm.Wall.P99Ns <= 0 {
		t.Errorf("warm phase ops %d, wall %+v, want one sample per request (%d)", warm.Ops, warm.Wall, requests)
	}
}

func TestExposeTCP(t *testing.T) {
	eng, net, clock := testEngine()
	net.Register("crl.tcp.test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("der-bytes"))
	}))
	signed := bytes.Repeat([]byte("pre-signed "), 200)
	net.Register("ocsp.tcp.test", simnet.NewCDN(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=3600,public")
		w.Header().Set("ETag", `"v1"`)
		w.Write(signed)
	}), clock.Now))
	tcp, err := eng.ExposeTCP("crl.tcp.test", "ocsp.tcp.test")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	defer eng.Close()

	// A CDN hit answered to a real server's writer takes the CDN's copying
	// path: same X-Cache, Age and body as a hit on the fabric.
	for i, want := range []struct{ xcache, age string }{{"MISS", ""}, {"HIT", "90"}, {"HIT", "90"}} {
		resp, err := eng.Client().Get("http://ocsp.tcp.test/ocsp/abc%2Fdef")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(body, signed) {
			t.Errorf("request %d over TCP: %d body bytes of %d, err %v", i, len(body), len(signed), err)
		}
		if got := resp.Header.Get("X-Cache"); got != want.xcache {
			t.Errorf("request %d over TCP: X-Cache = %q, want %q", i, got, want.xcache)
		}
		if got := resp.Header.Get("Age"); got != want.age {
			t.Errorf("request %d over TCP: Age = %q, want %q", i, got, want.age)
		}
		if resp.Header.Get("ETag") != `"v1"` {
			t.Errorf("request %d over TCP: headers %v", i, resp.Header)
		}
		if i == 0 {
			clock.Advance(90 * time.Second)
		}
	}

	res, err := eng.Phase("over-tcp", func(p *Phase) error {
		for i := 0; i < 3; i++ {
			resp, err := eng.Client().Get("http://crl.tcp.test/shard.crl")
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "der-bytes" {
				return fmt.Errorf("body = %q over TCP", body)
			}
			p.AddOps(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Count != 3 {
		t.Errorf("TCP request latency count = %d, want 3", res.Net.Count)
	}
	if res.Net.MaxNs <= 0 {
		t.Error("TCP wall latency not recorded")
	}
	if res.NetDigest != "" {
		t.Error("TCP phase must not claim net determinism")
	}
	if tcp.Addr("crl.tcp.test") == "" {
		t.Error("exposed host has no address")
	}
	if _, err := eng.Client().Get("http://unexposed.test/"); err == nil {
		t.Error("unexposed host resolved over TCP")
	}
}
