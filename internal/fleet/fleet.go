// Package fleet drives a population of simulated browsers through
// revocation checking at fleet scale: B concurrent clients sharing one
// revocation cache evaluate chains drawn from a Zipf-popular certificate
// population on the virtual clock. It is the client-side counterpart of
// the workload engine — where workload measures what CAs and CDNs pay to
// serve revocation data (§5), fleet measures what a million browsers pay
// to check it (§6–§7): cache hit ratios, singleflight dedupe savings,
// CRLSet/Bloom fast-path coverage, and per-verdict allocation cost.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/cascade"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/hist"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

// Config sizes the simulated world. The zero value of any field selects
// the default noted on it.
type Config struct {
	// Browsers is the number of simulated browsers (default 64). Each
	// browser evaluates its own deterministic chain sequence; all share
	// one Client and one cache, like tabs sharing a machine-wide
	// verifier.
	Browsers int
	// Certs is the size of the leaf population (default 256).
	Certs int
	// EvalsPerBrowser is how many chains each browser evaluates per run
	// (default 32).
	EvalsPerBrowser int
	// ZipfS is the Zipf skew of certificate popularity (default 1.2;
	// must be > 1). Low indices are popular, mirroring how a handful of
	// sites dominate real browsing.
	ZipfS float64
	// RevokedFraction of the population is revoked before any run
	// (default 0.05). Revocations land on the unpopular tail so the
	// popular working set stays mostly good, as in the real web (§6.1
	// found ~8% of served certificates revoked).
	RevokedFraction float64
	// CRLOnlyFraction of leaves carry only a CRL distribution point
	// (default 0.3), forcing the CRL path; the rest carry both pointers
	// and are checked over OCSP first.
	CRLOnlyFraction float64
	// CRLShards is the CA's CRL shard count (default 4).
	CRLShards int
	// Seed drives every random choice (default 1). Two worlds with the
	// same Config are identical.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Browsers <= 0 {
		c.Browsers = 64
	}
	if c.Certs <= 1 {
		c.Certs = 256
	}
	if c.EvalsPerBrowser <= 0 {
		c.EvalsPerBrowser = 32
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.RevokedFraction < 0 {
		c.RevokedFraction = 0
	}
	if c.RevokedFraction == 0 {
		c.RevokedFraction = 0.05
	}
	if c.CRLOnlyFraction < 0 {
		c.CRLOnlyFraction = 0
	}
	if c.CRLOnlyFraction == 0 {
		c.CRLOnlyFraction = 0.3
	}
	if c.CRLShards <= 0 {
		c.CRLShards = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// World is a frozen PKI plus a browsing plan: a CA serving CRL shards and
// OCSP over simnet, a leaf population with some revocations, the derived
// CRLSet/Bloom artifacts, and per-browser evaluation sequences. A World
// is immutable after New, so any number of runs (with different stores,
// worker counts, or fast paths) observe identical inputs.
type World struct {
	Cfg   Config
	Clock *simtime.Clock
	Net   *simnet.Network
	CA    *ca.CA
	// Chains[i] is [leaf_i, caCert]; roots are revocation-exempt, so each
	// verdict checks exactly the leaf.
	Chains  [][]*x509x.Certificate
	Records []*ca.Record
	// Revoked reports leaves revoked at world build (the population tail).
	Revoked []bool
	// CRLSet covers the CA's SPKI with every revoked serial — a fleet
	// with this set installed never needs the network.
	CRLSet *crlset.Set
	// Bloom holds BloomKey(parent, serial) for every revoked leaf.
	Bloom *bloom.Filter
	// CascadeRibbon is the CRLite-style filter cascade over the whole leaf
	// population: exact offline verdicts for every leaf, revoked or not.
	CascadeRibbon *cascade.Filter
	// Shards is the sharded install of CascadeRibbon (one issuer, one
	// shard) for exercising the per-issuer client path.
	Shards *cascade.ShardSet

	crlOnlyChain int       // index of a CRL-only leaf, for the stampede
	plans        [][]int32 // per-browser chain-index sequences
}

// New builds a world. The virtual clock starts at the paper's measurement
// epoch and is never advanced by runs, so cached artifacts stay current.
func New(cfg Config) (*World, error) {
	cfg.fillDefaults()
	clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
	net := simnet.New()
	authority, err := ca.NewRoot(ca.Config{
		Name:         "Fleet",
		NumCRLShards: cfg.CRLShards,
		CRLBaseURL:   "http://crl.fleet.test/crl",
		OCSPBaseURL:  "http://ocsp.fleet.test/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
		Clock:        clock.Now,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	net.Register("crl.fleet.test", authority.Handler())
	net.Register("ocsp.fleet.test", authority.Handler())

	w := &World{
		Cfg:          cfg,
		Clock:        clock,
		Net:          net,
		CA:           authority,
		Chains:       make([][]*x509x.Certificate, cfg.Certs),
		Records:      make([]*ca.Record, 0, cfg.Certs),
		Revoked:      make([]bool, cfg.Certs),
		crlOnlyChain: -1,
	}
	caCert := authority.Certificate()
	if err := w.issueLeaves(cfg, clock.Now()); err != nil {
		return nil, err
	}
	if w.crlOnlyChain < 0 {
		w.crlOnlyChain = 0 // no CRL-only leaf issued; stampede still works via fallback
	}

	// Revoke the unpopular tail so the Zipf head stays mostly good.
	nRevoked := int(cfg.RevokedFraction * float64(cfg.Certs))
	parent := crlset.Parent(caCert.SPKIHash())
	w.CRLSet = crlset.NewSet(1)
	w.CRLSet.AddParent(parent)
	w.Bloom = bloom.NewOptimal(max(64, nRevoked*2), max(1, nRevoked))
	for i := cfg.Certs - nRevoked; i < cfg.Certs; i++ {
		rec := w.Records[i]
		if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
			return nil, err
		}
		w.Revoked[i] = true
		w.CRLSet.Add(parent, rec.Serial)
		w.Bloom.Add(browser.BloomKey(nil, parent, rec.Serial.Bytes()))
	}

	// Filter cascade over the full population: exact for every leaf.
	var revokedKeys [][]byte
	for i := cfg.Certs - nRevoked; i < cfg.Certs; i++ {
		revokedKeys = append(revokedKeys, cascade.AppendKey(nil, cascade.Parent(parent), w.Records[i].Serial.Bytes()))
	}
	visit := func(fn func(key []byte) bool) {
		var buf [56]byte
		for _, rec := range w.Records {
			if !fn(cascade.AppendKey(buf[:0], cascade.Parent(parent), rec.Serial.Bytes())) {
				return
			}
		}
	}
	w.CascadeRibbon, err = cascade.Build(revokedKeys, visit, []cascade.Parent{cascade.Parent(parent)}, cascade.BuildConfig{
		Epoch:   1,
		BuiltAt: clock.Now(),
	})
	if err != nil {
		return nil, err
	}
	w.Shards, err = cascade.NewShardSet([]*cascade.Filter{w.CascadeRibbon})
	if err != nil {
		return nil, err
	}

	w.plans = buildPlans(cfg, runtime.GOMAXPROCS(0))
	return w, nil
}

// issueLeaves issues the leaf population in two steps. First the records
// are assigned in index order under the CA's lock, so every serial, shard
// and pointer is what one sequential Issue per leaf would give. Then the
// certificates (a key draw, a signature and a parse each: nearly all of
// the cost) are made on GOMAXPROCS goroutines, leaf i on goroutine i mod
// workers, each writing only its own Chains slots.
func (w *World) issueLeaves(cfg Config, now time.Time) error {
	caCert := w.CA.Certificate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opts := make([]ca.IssueOptions, cfg.Certs)
	for i := range opts {
		crlOnly := rng.Float64() < cfg.CRLOnlyFraction
		opts[i] = ca.IssueOptions{
			CommonName: fmt.Sprintf("site-%05d.fleet.test", i),
			NotBefore:  now.AddDate(0, -1, 0),
			NotAfter:   now.AddDate(1, 0, 0),
			OmitOCSP:   crlOnly,
		}
		if crlOnly && w.crlOnlyChain < 0 {
			w.crlOnlyChain = i
		}
		w.Records = append(w.Records, w.CA.IssueRecord(opts[i]))
	}
	workers := min(runtime.GOMAXPROCS(0), cfg.Certs)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < cfg.Certs; i += workers {
				cert, err := w.CA.SignRecord(w.Records[i], opts[i])
				if err != nil {
					errs[wk] = err
					return
				}
				w.Chains[i] = []*x509x.Certificate{cert, caCert}
			}
		}(wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildPlans draws every browser's chain-index sequence. Browser b's
// sequence depends only on (Seed, b), never on scheduling or on which
// goroutine drew it, which is what makes fleet aggregates worker-count
// independent and lets the browsers be split over workers goroutines
// (browser b goes to goroutine b mod workers). Each goroutine owns one
// generator, re-seeded per browser: Seed leaves it in exactly the state
// of a new source, and a Zipf holds parameters only, so the draws equal
// those of a fresh Rand and Zipf per browser without allocating a
// source for each. The generator is a planSource, math/rand's stream
// with a Seed that costs nothing until a word is drawn.
func buildPlans(cfg Config, workers int) [][]int32 {
	plans := make([][]int32, cfg.Browsers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			r := rand.New(&planSource{})
			z := rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Certs-1))
			for b := wk; b < cfg.Browsers; b += workers {
				r.Seed(cfg.Seed + 1 + int64(b))
				seq := make([]int32, cfg.EvalsPerBrowser)
				for e := range seq {
					seq[e] = int32(z.Uint64())
				}
				plans[b] = seq
			}
		}(wk)
	}
	wg.Wait()
	return plans
}

// NumRevoked reports how many leaves the world revoked.
func (w *World) NumRevoked() int {
	n := 0
	for _, r := range w.Revoked {
		if r {
			n++
		}
	}
	return n
}

// RunOptions selects how one fleet run executes against the World.
type RunOptions struct {
	// Workers is the number of goroutines sharing the browser population
	// (browser b is handled by worker b mod Workers). Default 1.
	Workers int
	// Store is the shared revocation cache; nil disables caching.
	Store *browser.Cache
	// CRLSet installs the world's CRLSet as the client's local fast path.
	CRLSet bool
	// Bloom installs the world's Bloom filter as the client's fast path.
	Bloom bool
	// CascadeRibbon installs the world's filter cascade as the
	// authoritative offline fast path (consulted before CRLSet/Bloom).
	CascadeRibbon bool
	// CascadeShards installs the world's sharded cascade set: verdicts
	// route through the per-issuer shard path.
	CascadeShards bool
	// Client overrides the HTTP client the run's browsers share. Nil
	// uses w.Net.Client() (the simnet fabric); the scenario engine sets
	// it to route a run through a faultnet injector or a real-TCP
	// transport without re-plumbing the world.
	Client *http.Client
	// Latency, when non-nil, receives every verdict's wall-clock
	// latency: worker wk records into Latency.Shard(wk), so the warm
	// verdict path stays allocation-free. A verdict costs two
	// monotonic-only clock reads, time.Since of the run's start taken
	// before and after it (the wall clock is never read per verdict),
	// and one bucket increment. Wall latencies are real time, not
	// virtual — report them, never fold them into determinism digests.
	Latency *hist.Sharded
}

// Result aggregates one fleet run.
type Result struct {
	Workers  int
	Verdicts int

	Accepts             int
	Warns               int
	Rejects             int
	RevocationsDetected int

	// Digest is an order-independent-of-scheduling fingerprint of the
	// per-browser outcome aggregates: identical across worker counts for
	// a fixed world.
	Digest uint64

	// Elapsed is this run's (phase's) wall time: measured from worker
	// launch to the last worker's return, excluding world construction
	// and the GC/ReadMemStats bracketing.
	Elapsed        time.Duration
	VerdictsPerSec float64
	// Latency summarizes the per-verdict wall latencies recorded into
	// RunOptions.Latency (zero when no histogram was supplied).
	Latency hist.Summary
	// AllocsPerVerdict / BytesPerVerdict are heap deltas over the run
	// divided by verdict count (runtime.ReadMemStats, whole process).
	AllocsPerVerdict float64
	BytesPerVerdict  float64

	// Cache is the store's counter delta for this run (zero without a
	// store).
	Cache browser.CacheStats
	// FastPath sums the per-verdict CRLSet/Bloom attribution.
	FastPath browser.FastPathStats

	NetRequests  int64
	NetBytes     int64
	ModelledTime time.Duration
}

// browserAgg is one browser's outcome tally, written only by the worker
// that owns the browser.
type browserAgg struct {
	accepts  uint32
	warns    uint32
	rejects  uint32
	detected uint32
	fast     browser.FastPathStats
}

func subStats(after, before browser.CacheStats) browser.CacheStats {
	return browser.CacheStats{
		CRLHits:     after.CRLHits - before.CRLHits,
		CRLMisses:   after.CRLMisses - before.CRLMisses,
		OCSPHits:    after.OCSPHits - before.OCSPHits,
		OCSPMisses:  after.OCSPMisses - before.OCSPMisses,
		Expired:     after.Expired - before.Expired,
		CRLFetches:  after.CRLFetches - before.CRLFetches,
		DedupeJoins: after.DedupeJoins - before.DedupeJoins,
	}
}

// Run executes every browser's plan once and returns the aggregate. The
// same World may be Run any number of times; runs with the same store
// warm it, runs with fresh stores measure cold behaviour.
func (w *World) Run(opt RunOptions) (Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	httpClient := opt.Client
	if httpClient == nil {
		httpClient = w.Net.Client()
	}
	client := &browser.Client{
		Profile: browser.Hardened(),
		HTTP:    httpClient,
		Now:     w.Clock.Now,
		Cache:   opt.Store,
	}
	if opt.CRLSet {
		client.CRLSet = w.CRLSet
	}
	if opt.Bloom {
		client.Bloom = w.Bloom
	}
	if opt.CascadeRibbon {
		client.Cascade = w.CascadeRibbon
	}
	if opt.CascadeShards {
		client.CascadeShards = w.Shards
	}

	aggs := make([]browserAgg, w.Cfg.Browsers)
	netBefore := w.Net.TotalStats()
	cacheBefore := opt.Store.Stats()

	var latBefore *hist.Snapshot
	if opt.Latency != nil {
		latBefore = opt.Latency.Snapshot()
	}

	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var rec *hist.Recorder
			if opt.Latency != nil {
				rec = opt.Latency.Shard(wk)
			}
			var v browser.Verdict
			for b := wk; b < w.Cfg.Browsers; b += workers {
				agg := &aggs[b]
				for _, ci := range w.plans[b] {
					var t0 time.Duration
					if rec != nil {
						t0 = time.Since(start)
					}
					if err := client.EvaluateInto(&v, w.Chains[ci], nil); err != nil {
						errs[wk] = err
						return
					}
					if rec != nil {
						rec.Record(time.Since(start) - t0)
					}
					switch v.Outcome {
					case browser.OutcomeAccept:
						agg.accepts++
					case browser.OutcomeWarn:
						agg.warns++
					case browser.OutcomeReject:
						agg.rejects++
					}
					if v.RevocationDetected {
						agg.detected++
					}
					agg.fast.Add(v.FastPath)
				}
			}
		}(wk)
	}
	wg.Wait()

	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	res := Result{Workers: workers, Elapsed: elapsed}
	h := fnv.New64a()
	var word [4]byte
	hashField := func(v uint32) {
		binary.LittleEndian.PutUint32(word[:], v)
		h.Write(word[:])
	}
	for i := range aggs {
		agg := &aggs[i]
		res.Accepts += int(agg.accepts)
		res.Warns += int(agg.warns)
		res.Rejects += int(agg.rejects)
		res.RevocationsDetected += int(agg.detected)
		res.FastPath.Add(agg.fast)
		hashField(agg.accepts)
		hashField(agg.warns)
		hashField(agg.rejects)
		hashField(agg.detected)
		hashField(uint32(agg.fast.CascadeHits))
		hashField(uint32(agg.fast.CascadeMisses))
		hashField(uint32(agg.fast.CascadeStale))
		hashField(uint32(agg.fast.CRLSetHits))
		hashField(uint32(agg.fast.CRLSetMisses))
		hashField(uint32(agg.fast.BloomNegatives))
		hashField(uint32(agg.fast.BloomPositives))
		hashField(uint32(agg.fast.BlockedSPKI))
	}
	res.Digest = h.Sum64()
	res.Verdicts = res.Accepts + res.Warns + res.Rejects
	if elapsed > 0 {
		res.VerdictsPerSec = float64(res.Verdicts) / elapsed.Seconds()
	}
	if res.Verdicts > 0 {
		res.AllocsPerVerdict = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Verdicts)
		res.BytesPerVerdict = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(res.Verdicts)
	}
	if opt.Latency != nil {
		res.Latency = opt.Latency.Snapshot().Sub(latBefore).Summary()
	}
	res.Cache = subStats(opt.Store.Stats(), cacheBefore)
	netAfter := w.Net.TotalStats()
	res.NetRequests = int64(netAfter.Requests - netBefore.Requests)
	res.NetBytes = int64(netAfter.BytesReceived - netBefore.BytesReceived)
	res.ModelledTime = netAfter.ModelledTime - netBefore.ModelledTime
	return res, nil
}

// StampedeResult reports how a cold shared cache absorbed N clients
// simultaneously demanding the same CRL.
type StampedeResult struct {
	Clients int
	// Fetches is how many network downloads actually ran (the
	// singleflight collapses the stampede to 1).
	Fetches int64
	// Joins counts clients that waited on another client's in-flight
	// download; Hits counts clients served from the already-stored copy.
	Joins int64
	Hits  int64
	// NetRequests is the fabric-observed request count for the stampede.
	NetRequests int64
	// Latency summarizes per-client wall latency: the fetcher pays the
	// download, joiners pay the singleflight wait, and the tail shows
	// what the collapse actually cost each client.
	Latency hist.Summary
}

// Stampede points clients concurrent browsers at one CRL-only chain
// through a fresh sharded cache and reports the dedupe outcome. Every
// client is released at once, modelling a popular site's visitors all
// missing their local cache at the same instant (the Heartbleed-morning
// case, §5.3).
func (w *World) Stampede(clients int) (StampedeResult, error) {
	if clients <= 0 {
		clients = 64
	}
	cache := browser.NewCache()
	client := &browser.Client{
		Profile: browser.Hardened(),
		HTTP:    w.Net.Client(),
		Now:     w.Clock.Now,
		Cache:   cache,
	}
	chain := w.Chains[w.crlOnlyChain]
	netBefore := w.Net.TotalStats().Requests

	var startGate sync.WaitGroup
	startGate.Add(1)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	lat := hist.NewSharded(clients) // one single-writer shard per client
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			startGate.Wait()
			t0 := time.Now()
			_, err := client.Evaluate(chain, nil)
			lat.Shard(i).Record(time.Since(t0))
			errs[i] = err
		}(i)
	}
	startGate.Done()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return StampedeResult{}, err
		}
	}
	st := cache.Stats()
	return StampedeResult{
		Clients:     clients,
		Fetches:     st.CRLFetches,
		Joins:       st.DedupeJoins,
		Hits:        st.CRLHits,
		NetRequests: int64(w.Net.TotalStats().Requests - netBefore),
		Latency:     lat.Snapshot().Summary(),
	}, nil
}
