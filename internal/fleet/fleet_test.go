package fleet

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/hist"
)

func testWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDeterminismAcrossWorkers is the fleet analogue of
// workload.TestParallelDeterminism: the aggregate digest must depend only
// on (world, plan), never on scheduling.
func TestDeterminismAcrossWorkers(t *testing.T) {
	cfg := Config{Browsers: 24, Certs: 64, EvalsPerBrowser: 12, Seed: 7}
	var want Result
	for i, workers := range []int{1, 2, 4, 8} {
		w := testWorld(t, cfg) // fresh world per run: identical by Seed
		got, err := w.Run(RunOptions{Workers: workers, Store: browser.NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		if got.Verdicts != cfg.Browsers*cfg.EvalsPerBrowser {
			t.Fatalf("workers=%d: %d verdicts, want %d", workers, got.Verdicts, cfg.Browsers*cfg.EvalsPerBrowser)
		}
		if i == 0 {
			want = got
			continue
		}
		if got.Digest != want.Digest {
			t.Errorf("workers=%d: digest %x, want %x (1 worker)", workers, got.Digest, want.Digest)
		}
		if got.Accepts != want.Accepts || got.Rejects != want.Rejects ||
			got.Warns != want.Warns || got.RevocationsDetected != want.RevocationsDetected {
			t.Errorf("workers=%d: outcomes %+v diverge from %+v", workers, got, want)
		}
	}
}

// TestDeterminismSameWorld re-runs the same world with fresh equal caches
// and different worker counts — the digest must also survive cache reuse
// order differences.
func TestDeterminismSameWorld(t *testing.T) {
	w := testWorld(t, Config{Browsers: 16, Certs: 48, EvalsPerBrowser: 8, Seed: 3})
	r1, err := w.Run(RunOptions{Workers: 1, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Run(RunOptions{Workers: 6, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r2.Digest {
		t.Errorf("digest diverges on shared world: %x vs %x", r1.Digest, r2.Digest)
	}
}

// TestFleetSharedCacheRace exists for the -race build: many goroutines
// hammer one Cache and one Client through concurrent Evaluate calls.
func TestFleetSharedCacheRace(t *testing.T) {
	w := testWorld(t, Config{Browsers: 32, Certs: 32, EvalsPerBrowser: 6, Seed: 5})
	cache := browser.NewCache()
	if _, err := w.Run(RunOptions{Workers: 16, Store: cache}); err != nil {
		t.Fatal(err)
	}
	// Concurrent direct sharing outside the driver too: one client, one
	// verdict per goroutine, overlapping chains.
	client := &browser.Client{
		Profile: browser.Hardened(),
		HTTP:    w.Net.Client(),
		Now:     w.Clock.Now,
		Cache:   cache,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v browser.Verdict
			for i := 0; i < 20; i++ {
				chain := w.Chains[(g*3+i)%len(w.Chains)]
				if err := client.EvaluateInto(&v, chain, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Stats().Hits() == 0 {
		t.Error("shared cache saw no hits under concurrency")
	}
}

func TestWarmCacheStopsNetworkTraffic(t *testing.T) {
	w := testWorld(t, Config{Browsers: 16, Certs: 32, EvalsPerBrowser: 8, Seed: 2})
	store := browser.NewCache()
	cold, err := w.Run(RunOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.NetRequests == 0 {
		t.Fatal("cold run made no network requests")
	}
	warm, err := w.Run(RunOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if warm.NetRequests != 0 {
		t.Errorf("warm run still made %d network requests", warm.NetRequests)
	}
	if ratio := warm.Cache.HitRatio(); ratio < 0.95 {
		t.Errorf("warm hit ratio = %.3f, want >= 0.95", ratio)
	}
	if cold.Digest != warm.Digest {
		t.Errorf("cold/warm digests diverge: %x vs %x (outcomes must be cache-independent)", cold.Digest, warm.Digest)
	}
}

func TestCRLSetFastPathNeedsNoNetwork(t *testing.T) {
	w := testWorld(t, Config{Browsers: 12, Certs: 32, EvalsPerBrowser: 8, Seed: 4})
	res, err := w.Run(RunOptions{Workers: 3, CRLSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetRequests != 0 {
		t.Errorf("CRLSet fleet made %d network requests, want 0", res.NetRequests)
	}
	if res.FastPath.CRLSetHits != res.Verdicts {
		t.Errorf("CRLSetHits = %d, want %d (every verdict local)", res.FastPath.CRLSetHits, res.Verdicts)
	}
	// The CRLSet must agree with the online protocols on every outcome.
	online, err := w.Run(RunOptions{Workers: 3, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects != online.Rejects || res.RevocationsDetected != online.RevocationsDetected {
		t.Errorf("CRLSet outcomes %+v disagree with online %+v", res, online)
	}
}

func TestBloomFastPathSkipsGoodFetches(t *testing.T) {
	w := testWorld(t, Config{Browsers: 12, Certs: 32, EvalsPerBrowser: 8, Seed: 6})
	bloomRes, err := w.Run(RunOptions{Workers: 2, Store: browser.NewCache(), Bloom: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := w.Run(RunOptions{Workers: 2, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if bloomRes.FastPath.BloomNegatives == 0 {
		t.Error("Bloom fleet recorded no negatives")
	}
	if bloomRes.NetRequests >= plain.NetRequests {
		t.Errorf("Bloom fleet fetched %d >= plain %d", bloomRes.NetRequests, plain.NetRequests)
	}
	if bloomRes.Rejects != plain.Rejects || bloomRes.RevocationsDetected != plain.RevocationsDetected {
		t.Errorf("Bloom outcomes %+v disagree with plain %+v", bloomRes, plain)
	}
}

// TestLatencyRecording: a run with a histogram attached must record one
// sample per verdict, report a sane summary, keep the digest identical
// to an unrecorded run, and stay allocation-free relative to it on the
// warm path (the hard 0-alloc gate is
// browser.TestWarmVerdictAllocatesNothing; here we bound the drift).
func TestLatencyRecording(t *testing.T) {
	cfg := Config{Browsers: 24, Certs: 64, EvalsPerBrowser: 12, Seed: 7}
	w := testWorld(t, cfg)
	store := browser.NewCache()
	if _, err := w.Run(RunOptions{Workers: 2, Store: store}); err != nil {
		t.Fatal(err) // warm the cache
	}
	bare, err := w.Run(RunOptions{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	lat := hist.NewSharded(2)
	recorded, err := w.Run(RunOptions{Workers: 2, Store: store, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Digest != bare.Digest {
		t.Errorf("latency recording changed the digest: %x vs %x", recorded.Digest, bare.Digest)
	}
	if recorded.Latency.Count != uint64(recorded.Verdicts) {
		t.Errorf("recorded %d latencies for %d verdicts", recorded.Latency.Count, recorded.Verdicts)
	}
	if recorded.Latency.P50Ns <= 0 || recorded.Latency.MaxNs < recorded.Latency.P999Ns {
		t.Errorf("implausible latency summary: %+v", recorded.Latency)
	}
	if snap := lat.Snapshot(); snap.Count != uint64(recorded.Verdicts) {
		t.Errorf("caller-visible histogram holds %d samples, want %d", snap.Count, recorded.Verdicts)
	}
	if recorded.AllocsPerVerdict > bare.AllocsPerVerdict+0.5 {
		t.Errorf("latency recording added allocations: %.2f vs %.2f allocs/verdict",
			recorded.AllocsPerVerdict, bare.AllocsPerVerdict)
	}
	// A second recorded run must report only its own delta, not the
	// cumulative histogram.
	again, err := w.Run(RunOptions{Workers: 2, Store: store, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if again.Latency.Count != uint64(again.Verdicts) {
		t.Errorf("second run summary counted %d samples, want per-run %d", again.Latency.Count, again.Verdicts)
	}
}

func TestStampedeCollapsesToOneFetch(t *testing.T) {
	w := testWorld(t, Config{Browsers: 8, Certs: 16, EvalsPerBrowser: 4, Seed: 9})
	res, err := w.Stampede(48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetches != 1 {
		t.Errorf("stampede caused %d CRL fetches, want 1", res.Fetches)
	}
	if res.Joins+res.Hits != int64(res.Clients-1) {
		t.Errorf("joins(%d)+hits(%d) != clients-1 (%d)", res.Joins, res.Hits, res.Clients-1)
	}
	if res.NetRequests != 1 {
		t.Errorf("fabric saw %d requests, want 1", res.NetRequests)
	}
	if res.Latency.Count != uint64(res.Clients) {
		t.Errorf("stampede recorded %d latencies for %d clients", res.Latency.Count, res.Clients)
	}
}

func TestCascadeFastPathFullyOffline(t *testing.T) {
	w := testWorld(t, Config{Browsers: 12, Certs: 32, EvalsPerBrowser: 8, Seed: 8})
	res, err := w.Run(RunOptions{Workers: 3, CascadeRibbon: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetRequests != 0 {
		t.Errorf("cascade fleet made %d network requests, want 0", res.NetRequests)
	}
	if res.FastPath.CascadeHits != res.Verdicts {
		t.Errorf("CascadeHits = %d, want %d (every verdict local)", res.FastPath.CascadeHits, res.Verdicts)
	}
	// The cascade must agree with the online protocols on every outcome —
	// it is exact, not probabilistic.
	online, err := w.Run(RunOptions{Workers: 3, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects != online.Rejects || res.RevocationsDetected != online.RevocationsDetected {
		t.Errorf("cascade outcomes %+v disagree with online %+v", res, online)
	}
}

func TestCascadeDeterminismAcrossWorkers(t *testing.T) {
	w := testWorld(t, Config{Browsers: 16, Certs: 48, EvalsPerBrowser: 6, Seed: 9})
	var digests []uint64
	for _, workers := range []int{1, 4} {
		res, err := w.Run(RunOptions{Workers: workers, CascadeRibbon: true})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("cascade digests differ across workers: %x vs %x", digests[0], digests[1])
	}
}

// TestShardedCascadeMatchesMonolithic: the two cascade installs —
// monolithic and per-issuer sharded — must produce the identical run
// digest: same verdicts, same fast-path attribution, zero network.
func TestShardedCascadeMatchesMonolithic(t *testing.T) {
	w := testWorld(t, Config{Browsers: 12, Certs: 64, EvalsPerBrowser: 8, Seed: 10})
	var digests []uint64
	for _, opt := range []RunOptions{
		{Workers: 3, CascadeRibbon: true},
		{Workers: 3, CascadeShards: true},
	} {
		res, err := w.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.NetRequests != 0 {
			t.Errorf("%+v: made %d network requests, want 0", opt, res.NetRequests)
		}
		if res.FastPath.CascadeHits != res.Verdicts {
			t.Errorf("%+v: CascadeHits = %d, want %d", opt, res.FastPath.CascadeHits, res.Verdicts)
		}
		digests = append(digests, res.Digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("cascade digests diverge across installs: %x", digests)
	}
}

// TestPlansEqualSerialReference: buildPlans shares one re-seeded
// generator per goroutine; the plans must equal, draw for draw, those of
// the loop it replaced (a new source and a new Zipf for every browser),
// however the browsers are split.
func TestPlansEqualSerialReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, browsers := range []int{1, 3, 1000} {
			cfg := Config{Browsers: browsers, Certs: 300, EvalsPerBrowser: 17, Seed: seed}
			cfg.fillDefaults()
			want := make([][]int32, browsers)
			for b := range want {
				r := rand.New(rand.NewSource(cfg.Seed + 1 + int64(b)))
				z := rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Certs-1))
				want[b] = make([]int32, cfg.EvalsPerBrowser)
				for e := range want[b] {
					want[b][e] = int32(z.Uint64())
				}
			}
			for _, workers := range []int{1, 2, 5} {
				if got := buildPlans(cfg, workers); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %d browsers, %d workers: plans differ from the serial reference", seed, browsers, workers)
				}
			}
		}
	}
}
