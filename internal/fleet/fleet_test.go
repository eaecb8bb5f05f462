package fleet

import (
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/cascade"
	"repro/internal/hist"
	"repro/internal/ribbon"
	"repro/internal/x509x"
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
// the loop it replaced (a new math/rand source and a new Zipf for every
// browser), however the browsers are split. The long plans take more
// than 607 draws per browser, so they read words the lagged-Fibonacci
// step has already overwritten.
func TestPlansEqualSerialReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, size := range []struct{ browsers, evals int }{{1, 17}, {3, 17}, {1000, 17}, {7, 700}} {
			cfg := Config{Browsers: size.browsers, Certs: 300, EvalsPerBrowser: size.evals, Seed: seed}
			cfg.fillDefaults()
			want := make([][]int32, size.browsers)
			maxDraws := 0
			for b := range want {
				src := &countingSource{Source64: rand.NewSource(cfg.Seed + 1 + int64(b)).(rand.Source64)}
				z := rand.NewZipf(rand.New(src), cfg.ZipfS, 1, uint64(cfg.Certs-1))
				want[b] = make([]int32, cfg.EvalsPerBrowser)
				for e := range want[b] {
					want[b][e] = int32(z.Uint64())
				}
				maxDraws = max(maxDraws, src.draws)
			}
			if size.evals > 607 && maxDraws <= 607 {
				t.Fatalf("seed %d, %d evaluations: at most %d draws per browser, want > 607", seed, size.evals, maxDraws)
			}
			for _, workers := range []int{1, 2, 5} {
				if got := buildPlans(cfg, workers); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d, %d browsers x %d evaluations, %d workers: plans differ from the serial reference", seed, size.browsers, size.evals, workers)
				}
			}
		}
	}
}

// countingSource counts the draws taken from a math/rand source.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source64.Int63() }

func (c *countingSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

// TestKeyDigestProbeMatchesRevoked: the level-1 digest a leaf memoises
// and the probe that takes it agree with Filter.Revoked(key) for every
// leaf of a fleet world, on the monolithic cascade and on the shard set,
// and so do the verdicts of clients holding either install. Every leaf
// is checked under two issuers: the world's CA and a second one whose
// shard revokes every third leaf instead of the world's tail. Odd leaves
// meet the second issuer first, so their memo holds its digest when the
// world's CA asks; a memo that ignored the issuer would answer with the
// wrong key's digest.
func TestKeyDigestProbeMatchesRevoked(t *testing.T) {
	w := testWorld(t, Config{Browsers: 1, Certs: 384, EvalsPerBrowser: 1, Seed: 12})
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	now := w.Clock.Now()
	tmpl := x509x.NewTemplate(big.NewInt(1), x509x.Name{CommonName: "Cross"}, now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0))
	tmpl.IsCA = true
	raw, err := x509x.Create(tmpl, nil, key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	issuers := []*x509x.Certificate{w.CA.Certificate(), cross}
	parents := []cascade.Parent{cascade.Parent(issuers[0].SPKIHash()), cascade.Parent(issuers[1].SPKIHash())}
	revokedUnder := func(j, i int) bool {
		if j == 0 {
			return w.Revoked[i]
		}
		return i%3 == 0
	}
	keysUnder := func(j int, revokedOnly bool) [][]byte {
		var keys [][]byte
		for i, rec := range w.Records {
			if !revokedOnly || revokedUnder(j, i) {
				keys = append(keys, cascade.AppendKey(nil, parents[j], rec.Serial.Bytes()))
			}
		}
		return keys
	}
	build := func(js ...int) *cascade.Filter {
		var revoked, known [][]byte
		var ps []cascade.Parent
		for _, j := range js {
			revoked = append(revoked, keysUnder(j, true)...)
			known = append(known, keysUnder(j, false)...)
			ps = append(ps, parents[j])
		}
		cascade.SortParents(ps)
		visit := func(fn func(key []byte) bool) {
			for _, k := range known {
				if !fn(k) {
					return
				}
			}
		}
		f, err := cascade.Build(revoked, visit, ps, cascade.BuildConfig{Epoch: 1, BuiltAt: now})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mono := build(0, 1)
	shards, err := cascade.NewShardSet([]*cascade.Filter{w.CascadeRibbon, build(1)})
	if err != nil {
		t.Fatal(err)
	}
	clients := []struct {
		name string
		c    *browser.Client
	}{
		{"cascade", &browser.Client{Profile: browser.Hardened(), HTTP: w.Net.Client(), Now: w.Clock.Now, Cascade: mono}},
		{"cascade-shards", &browser.Client{Profile: browser.Hardened(), HTTP: w.Net.Client(), Now: w.Clock.Now, CascadeShards: shards}},
	}
	netBefore := w.Net.TotalStats().Requests
	var v browser.Verdict
	revokedSeen := [2]int{}
	for i, chain := range w.Chains {
		leaf := chain[0]
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, j := range order {
			issuer := issuers[j]
			key := cascade.AppendKey(nil, parents[j], leaf.SerialBytes())
			d := leaf.KeyDigest(issuer)
			if d != ribbon.Sum(0, key) {
				t.Fatalf("leaf %d under issuer %d: memoised digest %x, want ribbon.Sum %x", i, j, d[:8], ribbon.Sum(0, key))
			}
			want := revokedUnder(j, i)
			if want {
				revokedSeen[j]++
			}
			for _, f := range []struct {
				name string
				f    *cascade.Filter
			}{{"cascade", mono}, {"shard", shards.Shard(parents[j])}} {
				if got, ref := f.f.RevokedDigest(key, d), f.f.Revoked(key); got != ref || got != want {
					t.Errorf("leaf %d under issuer %d, %s: RevokedDigest %v, Revoked %v, want %v", i, j, f.name, got, ref, want)
				}
			}
			for _, c := range clients {
				if err := c.c.EvaluateInto(&v, []*x509x.Certificate{leaf, issuer}, nil); err != nil {
					t.Fatal(err)
				}
				if v.RevocationDetected != want || v.FastPath.CascadeHits != 1 {
					t.Errorf("leaf %d under issuer %d, %s client: revoked %v (want %v), fast path %+v", i, j, c.name, v.RevocationDetected, want, v.FastPath)
				}
			}
		}
	}
	if revokedSeen[0] == 0 || revokedSeen[1] == 0 {
		t.Fatalf("revoked leaves per issuer %v: the test needs some under each", revokedSeen)
	}
	if n := w.Net.TotalStats().Requests - netBefore; n != 0 {
		t.Errorf("%d network requests, want 0", n)
	}
}

// TestNewSameAcrossProcs pins parallel signing: New under one and under
// four procs builds the same world, index by index — records assigned in
// the same order, certificates carrying the same serials, names and
// pointers — and the same Run digest. Only key material and signatures,
// which come from crypto/rand, may differ.
func TestNewSameAcrossProcs(t *testing.T) {
	cfg := Config{Browsers: 16, Certs: 96, EvalsPerBrowser: 8, Seed: 5}
	build := func(procs int) *World {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return testWorld(t, cfg)
	}
	one, four := build(1), build(4)
	if len(one.Records) != cfg.Certs || len(four.Records) != cfg.Certs || len(one.Chains) != cfg.Certs || len(four.Chains) != cfg.Certs {
		t.Fatalf("sizes: %d/%d records, %d/%d chains, want %d", len(one.Records), len(four.Records), len(one.Chains), len(four.Chains), cfg.Certs)
	}
	for i := range one.Records {
		a, b := one.Records[i], four.Records[i]
		if a.Serial.Cmp(b.Serial) != 0 || a.Shard != b.Shard || a.CRLURL != b.CRLURL || a.HasOCSP != b.HasOCSP {
			t.Fatalf("record %d: serial %x shard %d crl %q ocsp %t under 1 proc; %x %d %q %t under 4",
				i, a.Serial, a.Shard, a.CRLURL, a.HasOCSP, b.Serial, b.Shard, b.CRLURL, b.HasOCSP)
		}
		la, lb := one.Chains[i][0], four.Chains[i][0]
		if la.SerialNumber.Cmp(a.Serial) != 0 || lb.SerialNumber.Cmp(b.Serial) != 0 {
			t.Fatalf("leaf %d: serials %x and %x, records %x", i, la.SerialNumber, lb.SerialNumber, a.Serial)
		}
		if la.Subject != lb.Subject ||
			!reflect.DeepEqual(la.CRLDistributionPoints, lb.CRLDistributionPoints) ||
			!reflect.DeepEqual(la.OCSPServers, lb.OCSPServers) {
			t.Fatalf("leaf %d: subject %v crldp %q ocsp %q under 1 proc; %v %q %q under 4",
				i, la.Subject, la.CRLDistributionPoints, la.OCSPServers, lb.Subject, lb.CRLDistributionPoints, lb.OCSPServers)
		}
		if one.Chains[i][1] != one.CA.Certificate() || four.Chains[i][1] != four.CA.Certificate() {
			t.Fatalf("chain %d does not end at its world's CA", i)
		}
	}
	if one.crlOnlyChain != four.crlOnlyChain {
		t.Errorf("CRL-only chain %d under 1 proc, %d under 4", one.crlOnlyChain, four.crlOnlyChain)
	}
	r1, err := one.Run(RunOptions{Workers: 2, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := four.Run(RunOptions{Workers: 2, Store: browser.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r4.Digest || r1.Rejects == 0 {
		t.Errorf("Run digest %x (%d rejects) under 1 proc, %x (%d rejects) under 4", r1.Digest, r1.Rejects, r4.Digest, r4.Rejects)
	}
}
