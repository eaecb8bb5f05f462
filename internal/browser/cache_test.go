package browser

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

func testCRL(next time.Time) *crl.CRL {
	return &crl.CRL{
		ThisUpdate: next.Add(-7 * 24 * time.Hour),
		NextUpdate: next,
	}
}

func TestCacheExpiryIsMissNotDelete(t *testing.T) {
	c := NewCache()
	now := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	c.PutCRL("http://crl.test/1.crl", testCRL(now.Add(time.Hour)))

	if _, ok := c.CRL("http://crl.test/1.crl", now); !ok {
		t.Fatal("live entry missed")
	}
	// Past expiry the entry is a miss but stays resident.
	late := now.Add(2 * time.Hour)
	if _, ok := c.CRL("http://crl.test/1.crl", late); ok {
		t.Fatal("expired entry served")
	}
	if crls, _ := c.Len(); crls != 1 {
		t.Errorf("read path deleted the expired entry: len = %d", crls)
	}
	st := c.Stats()
	if st.CRLHits != 1 || st.CRLMisses != 1 || st.Expired != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoCRLSingleflight(t *testing.T) {
	c := NewCache()
	now := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	const clients = 32

	var fetches int32
	var mu sync.Mutex
	gate := make(chan struct{})
	fetch := func() (*crl.CRL, error) {
		mu.Lock()
		fetches++
		mu.Unlock()
		<-gate // hold the flight open until every client has arrived
		return testCRL(now.Add(time.Hour)), nil
	}

	var started, done sync.WaitGroup
	started.Add(clients)
	done.Add(clients)
	results := make([]CRLSource, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			started.Done()
			parsed, src, err := c.fetchCRLOnce("http://crl.test/big.crl", now, fetch)
			if err != nil || parsed == nil {
				t.Errorf("client %d: %v", i, err)
			}
			results[i] = src
			done.Done()
		}(i)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the stampede pile onto the flight
	close(gate)
	done.Wait()

	if fetches != 1 {
		t.Fatalf("%d clients caused %d fetches, want 1", clients, fetches)
	}
	var fetched int
	for _, src := range results {
		if src == SourceFetched {
			fetched++
		}
	}
	if fetched != 1 {
		t.Errorf("%d clients report SourceFetched, want exactly 1", fetched)
	}
	st := c.Stats()
	if st.CRLFetches != 1 {
		t.Errorf("CRLFetches = %d, want 1", st.CRLFetches)
	}
	if st.DedupeJoins+st.CRLHits != clients-1 {
		t.Errorf("joins(%d)+hits(%d) != %d", st.DedupeJoins, st.CRLHits, clients-1)
	}

	// A subsequent call is a plain cache hit, still one total fetch.
	if _, src, err := c.fetchCRLOnce("http://crl.test/big.crl", now, fetch); err != nil || src != SourceCached {
		t.Errorf("warm fetch = %v, %v", src, err)
	}
	if c.Stats().CRLFetches != 1 {
		t.Error("warm fetch refetched")
	}
}

func TestDoCRLErrorNotCached(t *testing.T) {
	c := NewCache()
	now := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	boom := errors.New("down")
	calls := 0
	fetch := func() (*crl.CRL, error) { calls++; return nil, boom }
	if _, _, err := c.fetchCRLOnce("http://crl.test/x.crl", now, fetch); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Failures must not negative-cache: the next caller retries.
	if _, _, err := c.fetchCRLOnce("http://crl.test/x.crl", now, fetch); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Errorf("fetch ran %d times, want 2 (no negative caching)", calls)
	}
}

func TestNilStoreDoCRL(t *testing.T) {
	var c *Cache
	now := time.Now()
	parsed, src, err := c.fetchCRLOnce("http://crl.test/x.crl", now, func() (*crl.CRL, error) {
		return testCRL(now.Add(time.Hour)), nil
	})
	if err != nil || parsed == nil || src != SourceFetched {
		t.Errorf("nil cache fetch = %v, %v, %v", parsed, src, err)
	}
}

// cachePopulation is what one differential script works on: three
// issuers that only a full CertID tells apart (a and b share a key under
// two names, as cross-signed CAs do; a and c share a name over two
// keys, as a re-keyed CA does), leaves whose serials cover the shapes a
// key builder can get wrong, and a few CRL URLs.
type cachePopulation struct {
	issuers []*x509x.Certificate
	leaves  []*x509x.Certificate
	urls    []string
}

func newCachePopulation(t *testing.T, tag string) *cachePopulation {
	t.Helper()
	k1, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	parsed := func(cn string, key *ecdsa.PrivateKey, serial *big.Int) *x509x.Certificate {
		tmpl := x509x.NewTemplate(serial, x509x.Name{CommonName: cn}, now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0))
		raw, err := x509x.Create(tmpl, nil, key, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := x509x.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	p := &cachePopulation{issuers: []*x509x.Certificate{
		parsed("CA One "+tag, k1, big.NewInt(1)),
		parsed("CA Two "+tag, k1, big.NewInt(1)), // same key, different name
		parsed("CA One "+tag, k2, big.NewInt(1)), // same name, different key
	}}
	// Parsed leaves read their serial out of Raw.
	for _, mag := range [][]byte{{0x01}, {0x01, 0x00}, {0x17}, {0x80, 0x01}, bytes.Repeat([]byte{0xab}, 19), bytes.Repeat([]byte{0xab}, 20), bytes.Repeat([]byte{0xfe}, 21)} {
		p.leaves = append(p.leaves, parsed("leaf "+tag, k2, new(big.Int).SetBytes(mag)))
	}
	// Hand-built ones compute it: the zero serial, and 0x17 written with
	// leading zero bytes, which is the same certificate to a CertID as
	// the parsed 0x17 above.
	for _, mag := range [][]byte{{}, {0x00, 0x00, 0x17}} {
		p.leaves = append(p.leaves, &x509x.Certificate{SerialNumber: new(big.Int).SetBytes(mag)})
	}
	for i := 0; i < 5; i++ {
		p.urls = append(p.urls, fmt.Sprintf("http://crl.%s.test/%d.crl", tag, i))
	}
	return p
}

// cacheTally is what a script counted of its own lookups.
type cacheTally struct{ crlHits, crlMisses, ocspHits, ocspMisses, expired int64 }

func (a *cacheTally) add(b cacheTally) {
	a.crlHits += b.crlHits
	a.crlMisses += b.crlMisses
	a.ocspHits += b.ocspHits
	a.ocspMisses += b.ocspMisses
	a.expired += b.expired
}

// runCacheScript plays a seeded sequence of puts, lookups and clock steps
// against the sharded cache and the seed's single-lock cache (which keys
// by the full ocsp.CertID string), and against a model of its own keyed
// by (issuer index, serial value). Every lookup must get the same answer
// from all three. Nothing else may touch the population's keys while it
// runs.
func runCacheScript(t *testing.T, seed int64, steps int, p *cachePopulation, cache *Cache, legacy *SingleLockCache) cacheTally {
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	window := func() (time.Time, time.Time) {
		if rng.Intn(10) == 0 {
			return now.Add(-time.Hour), time.Time{} // no nextUpdate: not cacheable
		}
		return now.Add(-time.Hour), now.Add(time.Duration(1+rng.Intn(48)) * time.Hour)
	}
	modelOCSP := make(map[string]ocsp.SingleResponse)
	modelCRL := make(map[string]*crl.CRL)
	var tally cacheTally
	for step := 0; step < steps; step++ {
		ii := rng.Intn(len(p.issuers))
		issuer, leaf := p.issuers[ii], p.leaves[rng.Intn(len(p.leaves))]
		pair := fmt.Sprintf("%d/%s", ii, leaf.SerialNumber)
		url := p.urls[rng.Intn(len(p.urls))]
		switch op := rng.Intn(10); {
		case op < 2:
			sr := ocsp.SingleResponse{Status: ocsp.Status(rng.Intn(3))}
			sr.ThisUpdate, sr.NextUpdate = window()
			cache.PutOCSP(issuer, leaf, sr)
			legacy.PutOCSP(issuer, leaf, sr)
			if !sr.NextUpdate.IsZero() {
				modelOCSP[pair] = sr
			}
		case op < 6:
			want, known := modelOCSP[pair]
			live := known && want.CurrentAt(now)
			got, ok := cache.OCSP(issuer, leaf, now)
			old, oldOK := legacy.OCSP(issuer, leaf, now)
			if ok != live || oldOK != live {
				t.Errorf("step %d: OCSP(%s) hit: cache %v, single-lock %v, model %v", step, pair, ok, oldOK, live)
			}
			if live && (got.Status != want.Status || !got.NextUpdate.Equal(want.NextUpdate) || old.Status != want.Status) {
				t.Errorf("step %d: OCSP(%s) = %v until %v, want %v until %v", step, pair, got.Status, got.NextUpdate, want.Status, want.NextUpdate)
			}
			switch {
			case live:
				tally.ocspHits++
			case known:
				tally.expired++
				fallthrough
			default:
				tally.ocspMisses++
			}
		case op < 7:
			parsed := &crl.CRL{}
			parsed.ThisUpdate, parsed.NextUpdate = window()
			cache.PutCRL(url, parsed)
			legacy.PutCRL(url, parsed)
			if !parsed.NextUpdate.IsZero() {
				modelCRL[url] = parsed
			}
		case op < 9:
			want, known := modelCRL[url]
			live := known && want.CurrentAt(now)
			got, ok := cache.CRL(url, now)
			old, oldOK := legacy.CRL(url, now)
			if ok != live || oldOK != live || (live && (got != want || old != want)) {
				t.Errorf("step %d: CRL(%s): cache %v, single-lock %v, model %v", step, url, ok, oldOK, live)
			}
			switch {
			case live:
				tally.crlHits++
			case known:
				tally.expired++
				fallthrough
			default:
				tally.crlMisses++
			}
		default:
			now = now.Add(time.Duration(rng.Intn(6*60)) * time.Minute)
		}
	}
	return tally
}

func checkCacheTally(t *testing.T, cache *Cache, want cacheTally) {
	t.Helper()
	st := cache.Stats()
	got := cacheTally{st.CRLHits, st.CRLMisses, st.OCSPHits, st.OCSPMisses, st.Expired}
	if got != want {
		t.Errorf("CacheStats count %+v, the scripts counted %+v", got, want)
	}
	if want.ocspHits == 0 || want.crlHits == 0 || want.expired == 0 || want.ocspMisses == 0 {
		t.Errorf("script too tame to test anything: %+v", want)
	}
}

// TestCacheAgreesWithSingleLockCache: the sharded cache keys an OCSP
// entry by 64 bytes of memoised issuer hashes and the serial, and picks
// the shard from twelve of those bytes; the seed's cache keys by the
// CertID it rebuilds on every call. Whatever a script does, the two must
// answer alike, and the per-shard counters must add up to exactly the
// lookups made.
func TestCacheAgreesWithSingleLockCache(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		cache := newCache(shards)
		tally := runCacheScript(t, int64(shards), 6000, newCachePopulation(t, "serial"), cache, NewSingleLockCache())
		checkCacheTally(t, cache, tally)
	}
}

// TestCacheAgreesWithSingleLockCacheConcurrent: eight scripts at once on
// one cache pair, each over issuers and URLs of its own so that its
// answers do not depend on the interleaving; the shards, their locks and
// their counters are shared.
func TestCacheAgreesWithSingleLockCacheConcurrent(t *testing.T) {
	cache, legacy := newCache(4), NewSingleLockCache()
	const scripts = 8
	pops := make([]*cachePopulation, scripts)
	for g := range pops {
		pops[g] = newCachePopulation(t, fmt.Sprintf("g%d", g))
	}
	tallies := make([]cacheTally, scripts)
	var wg sync.WaitGroup
	for g := 0; g < scripts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tallies[g] = runCacheScript(t, int64(100+g), 2000, pops[g], cache, legacy)
		}(g)
	}
	wg.Wait()
	var total cacheTally
	for _, tl := range tallies {
		total.add(tl)
	}
	checkCacheTally(t, cache, total)
}
