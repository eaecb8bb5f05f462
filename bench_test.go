package repro

// The repository-wide benchmark harness: one benchmark per table and
// figure of the paper's evaluation (regenerating the same rows/series),
// the ablation benches DESIGN.md calls out, and microbenchmarks for the
// hot substrate paths (DER parse, CRL/OCSP round trips, Bloom and CRLSet
// lookups). Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches share one simulated world (built once at 1/500 of
// internet scale) and one browser test suite; building them is reported by
// the dedicated Build benchmarks rather than folded into every figure.

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ocsp"
	"repro/internal/revdb"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/testsuite"
	"repro/internal/workload"
	"repro/internal/x509x"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchSuite  *testsuite.Suite
	benchErr    error
)

func benchWorld(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner, benchErr = experiments.New(workload.Config{Scale: 0.002, Seed: 42})
		if benchErr == nil {
			benchSuite, benchErr = testsuite.Build(testsuite.Generate())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRunner
}

func requireOK(b *testing.B, res *experiments.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if !res.OK() {
		b.Fatalf("%s deviated from the paper's shape:\n%s", res.ID, res.Render())
	}
}

// --- One benchmark per table and figure ---

func BenchmarkFigure1Lifetimes(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure1(), nil)
	}
}

func BenchmarkFigure2RevokedFractions(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure2(), nil)
	}
}

// figure3Checked records whether the cold-cache Figure 3 shape check has
// run: the experiment performs real handshakes that warm the hosts' staple
// caches, so the single-request undercount saturates on every execution
// after the first (which is exactly the Figure 3 effect). The benchmark
// harness re-invokes the function with growing b.N, so the full shape
// check can only apply to the first execution overall.
var figure3Checked bool

func BenchmarkFigure3StaplingObservation(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Figure3()
		if !figure3Checked {
			figure3Checked = true
			requireOK(b, res, nil)
			continue
		}
		for _, f := range res.Findings {
			if f.Metric == "curve monotone increasing" && !f.OK {
				b.Fatalf("monotone check failed: %s", f.Measured)
			}
		}
	}
}

func BenchmarkFigure4RevocationInfo(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure4(), nil)
	}
}

func BenchmarkFigure5CRLSizes(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5()
		requireOK(b, res, err)
	}
}

func BenchmarkFigure6CRLSizeCDF(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6()
		requireOK(b, res, err)
	}
}

func BenchmarkTable1CAStats(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Table1()
		requireOK(b, res, err)
	}
}

func BenchmarkTable2BrowserMatrix(b *testing.B) {
	benchWorld(b)
	profiles := browser.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := benchSuite.Matrix(profiles)
		if err != nil {
			b.Fatal(err)
		}
		if cell, ok := m.Find("OCSP leaf revoked", "Firefox 40"); !ok || cell != testsuite.CellPass {
			b.Fatalf("matrix sanity check failed: %q", cell)
		}
	}
}

func BenchmarkFigure7CRLSetCoverage(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure7(), nil)
	}
}

func BenchmarkFigure8CRLSetSize(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure8(), nil)
	}
}

func BenchmarkFigure9DailyAdditions(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure9(), nil)
	}
}

func BenchmarkFigure10VulnerabilityWindows(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure10(), nil)
	}
}

func BenchmarkFigure11BloomTradeoff(b *testing.B) {
	r := &experiments.Runner{Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.Figure11(), nil)
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

func BenchmarkAblationCRLSharding(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.AblationCRLSharding()
		requireOK(b, res, err)
	}
}

func BenchmarkAblationStapling(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.AblationStapling()
		requireOK(b, res, err)
	}
}

func BenchmarkAblationSetEncoding(b *testing.B) {
	r := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireOK(b, r.AblationSetEncoding(), nil)
	}
}

func BenchmarkAblationFailurePolicy(b *testing.B) {
	benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFailurePolicy()
		requireOK(b, res, err)
	}
}

// --- Substrate microbenchmarks ---

type benchPKI struct {
	authority *ca.CA
	clock     *simtime.Clock
	net       *simnet.Network
	leafCert  *x509x.Certificate
	leafRec   *ca.Record
	crlRaw    []byte
	ocspRaw   []byte
}

var (
	pkiOnce sync.Once
	pki     *benchPKI
	pkiErr  error
)

func benchPKISetup(b *testing.B) *benchPKI {
	b.Helper()
	pkiOnce.Do(func() {
		clock := simtime.NewClock(simtime.Date(2015, time.March, 1))
		net := simnet.New()
		authority, err := ca.NewRoot(ca.Config{
			Name: "BenchCA", CRLBaseURL: "http://crl.bench.test/crl", OCSPBaseURL: "http://ocsp.bench.test/ocsp",
			IncludeCRLDP: true, IncludeOCSP: true, Clock: clock.Now, Seed: 5,
		})
		if err != nil {
			pkiErr = err
			return
		}
		net.Register("crl.bench.test", authority.Handler())
		net.Register("ocsp.bench.test", authority.Handler())
		leafCert, leafRec, err := authority.Issue(ca.IssueOptions{
			CommonName: "bench.test", NotBefore: clock.Now().AddDate(0, -1, 0), NotAfter: clock.Now().AddDate(1, 0, 0),
		})
		if err != nil {
			pkiErr = err
			return
		}
		// A mid-sized CRL: 1,000 entries (~38 KB, the paper's median
		// certificate-weighted size).
		for i := 0; i < 1000; i++ {
			rec := authority.IssueRecord(ca.IssueOptions{
				CommonName: fmt.Sprintf("filler-%d", i),
				NotBefore:  clock.Now().AddDate(0, -1, 0), NotAfter: clock.Now().AddDate(1, 0, 0),
			})
			if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
				pkiErr = err
				return
			}
		}
		crlRaw, err := authority.CRLBytes(0)
		if err != nil {
			pkiErr = err
			return
		}
		signer, key := authority.Signer()
		ocspRaw, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
			ProducedAt: clock.Now(),
			Responses: []ocsp.SingleResponse{{
				ID: ocsp.NewCertID(signer, leafRec.Serial), Status: ocsp.StatusGood,
				ThisUpdate: clock.Now(), NextUpdate: clock.Now().Add(96 * time.Hour),
			}},
		}, signer, key)
		if err != nil {
			pkiErr = err
			return
		}
		pki = &benchPKI{
			authority: authority, clock: clock, net: net,
			leafCert: leafCert, leafRec: leafRec, crlRaw: crlRaw, ocspRaw: ocspRaw,
		}
	})
	if pkiErr != nil {
		b.Fatal(pkiErr)
	}
	return pki
}

func BenchmarkCertificateParse(b *testing.B) {
	p := benchPKISetup(b)
	b.SetBytes(int64(len(p.leafCert.Raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x509x.Parse(p.leafCert.Raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRLParse1000Entries(b *testing.B) {
	p := benchPKISetup(b)
	b.SetBytes(int64(len(p.crlRaw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crl.Parse(p.crlRaw); err != nil {
			b.Fatal(err)
		}
	}
}

// The CRL data-path fixture, signed by the PKI fixture's CA: a
// Heartbleed-scale CRL for the parse path (500k entries, the order of
// GlobalSign's post-Heartbleed mass revocation, §4) and a 100k-entry list
// for the re-sign and ingest paths.
var (
	crlBenchOnce  sync.Once
	crlBenchRaw   []byte
	crlBenchList  []crl.Entry
	crlBenchErr   error
	crlBenchStart = simtime.Date(2014, time.April, 16) // the Heartbleed spike
)

// crlBenchEntries spreads serial widths like real CAs do (§5's per-CA
// entry size variance): 4-to-9-byte magnitudes.
func crlBenchEntries(n int) []crl.Entry {
	entries := make([]crl.Entry, n)
	reasons := []crl.Reason{crl.ReasonAbsent, crl.ReasonUnspecified, crl.ReasonKeyCompromise, crl.ReasonSuperseded}
	for i := range entries {
		entries[i] = crl.Entry{
			Serial:    big.NewInt(int64(i)*2654435761 + 1000003).Bytes(),
			RevokedAt: crlBenchStart.Add(-time.Duration(i%72) * time.Hour),
			Reason:    reasons[i%4],
		}
	}
	return entries
}

func crlBenchSetup(b *testing.B) *benchPKI {
	b.Helper()
	p := benchPKISetup(b)
	crlBenchOnce.Do(func() {
		issuer, key := p.authority.Signer()
		crlBenchList = crlBenchEntries(100000)
		encoded, err := new(crl.EncodeCache).Extend(crlBenchEntries(500000))
		if err != nil {
			crlBenchErr = err
			return
		}
		crlBenchRaw, crlBenchErr = crl.CreateEncoded(&crl.Template{
			ThisUpdate: crlBenchStart,
			NextUpdate: crlBenchStart.AddDate(0, 0, 1),
			Number:     big.NewInt(1),
		}, encoded, issuer, key)
	})
	if crlBenchErr != nil {
		b.Fatal(crlBenchErr)
	}
	return p
}

// BenchmarkCRLParseHeartbleedScale parses a 500k-entry CRL — the size
// GlobalSign shipped after Heartbleed — through the streaming parser.
func BenchmarkCRLParseHeartbleedScale(b *testing.B) {
	crlBenchSetup(b)
	b.SetBytes(int64(len(crlBenchRaw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crl.Parse(crlBenchRaw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRLIncrementalResign measures a daily re-sign of a 100k-entry
// shard whose entries are unchanged: the append-only encode cache reduces
// it to header assembly plus one ECDSA signature.
// crl.TestIncrementalResignAllocs gates its allocation count.
func BenchmarkCRLIncrementalResign(b *testing.B) {
	issuer, key := crlBenchSetup(b).authority.Signer()
	var ec crl.EncodeCache
	if _, err := ec.Extend(crlBenchList); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded, err := ec.Extend(crlBenchList)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := crl.CreateEncoded(&crl.Template{
			ThisUpdate: crlBenchStart.AddDate(0, 0, i+1),
			NextUpdate: crlBenchStart.AddDate(0, 0, i+2),
			Number:     big.NewInt(int64(i) + 2),
		}, encoded, issuer, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevDBIngestResigned measures revdb ingest of a re-signed
// 100k-entry CRL (same entries, new object) via the interned per-URL
// serial index. revdb.TestIngestResignedAllocs gates its allocation
// count.
func BenchmarkRevDBIngestResigned(b *testing.B) {
	crlBenchSetup(b)
	const url = "http://crl.bench.test/heartbleed.crl"
	db := revdb.New()
	day := simtime.CrawlStart
	db.IngestSnapshot(&crawler.Snapshot{Day: day, CRLs: map[string]*crl.CRL{url: {Entries: crlBenchList}}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		added := db.IngestSnapshot(&crawler.Snapshot{
			Day:  day.AddDate(0, 0, i+1),
			CRLs: map[string]*crl.CRL{url: {Entries: crlBenchList}},
		})
		if added != 0 {
			b.Fatalf("re-signed ingest added %d entries", added)
		}
	}
}

func BenchmarkCRLLookup(b *testing.B) {
	p := benchPKISetup(b)
	parsed, err := crl.Parse(p.crlRaw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parsed.LookupSerial(p.leafRec.Serial.Bytes())
	}
}

func BenchmarkOCSPResponseParse(b *testing.B) {
	p := benchPKISetup(b)
	b.SetBytes(int64(len(p.ocspRaw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocsp.ParseResponse(p.ocspRaw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOCSPRoundTrip(b *testing.B) {
	p := benchPKISetup(b)
	client := &ocsp.Client{HTTP: p.net.Client()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := client.CheckContext(context.Background(), "http://ocsp.bench.test/ocsp", p.authority.Certificate(), p.leafRec.Serial, p.clock.Now())
		if err != nil {
			b.Fatal(err)
		}
		if sr.Status != ocsp.StatusGood {
			b.Fatalf("status %v", sr.Status)
		}
	}
}

func BenchmarkChainVerify(b *testing.B) {
	p := benchPKISetup(b)
	verifier := &chain.Verifier{Roots: chain.NewPool(p.authority.Certificate()), Intermediates: chain.NewPool()}
	opts := chain.Options{At: p.clock.Now()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verifier.Verify(p.leafCert, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditChain(b *testing.B) {
	p := benchPKISetup(b)
	auditor := &core.Auditor{
		Roots: chain.NewPool(p.authority.Certificate()),
		HTTP:  p.net.Client(),
		Now:   p.clock.Now,
	}
	chainCerts := []*x509x.Certificate{p.leafCert, p.authority.Certificate()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := auditor.AuditChain("bench.test", chainCerts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if report.Verdict() != "good" {
			b.Fatalf("verdict %s", report.Verdict())
		}
	}
}

func BenchmarkBrowserEvaluate(b *testing.B) {
	p := benchPKISetup(b)
	client := &browser.Client{Profile: browser.Hardened(), HTTP: p.net.Client(), Now: p.clock.Now}
	chainCerts := []*x509x.Certificate{p.leafCert, p.authority.Certificate()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := client.Evaluate(chainCerts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v.Outcome != browser.OutcomeAccept {
			b.Fatalf("outcome %v", v.Outcome)
		}
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	f := bloom.NewOptimal(256<<10, 200000)
	payload := make([]byte, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		payload[1] = byte(i >> 8)
		payload[2] = byte(i >> 16)
		f.Add(payload)
	}
}

func BenchmarkBloomContains(b *testing.B) {
	f := bloom.NewOptimal(256<<10, 200000)
	for i := 0; i < 200000; i++ {
		f.Add([]byte(fmt.Sprintf("rev-%d", i)))
	}
	probe := []byte("rev-12345")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Contains(probe) {
			b.Fatal("false negative")
		}
	}
}

func BenchmarkCRLSetLookup(b *testing.B) {
	set := crlset.NewSet(1)
	var parent crlset.Parent
	for i := int64(1); i <= 25000; i++ {
		set.Add(parent, big.NewInt(i))
	}
	serial := big.NewInt(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !set.Covers(parent, serial) {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkCRLSetGenerate(b *testing.B) {
	var sources []crlset.SourceCRL
	for i := 0; i < 50; i++ {
		var p crlset.Parent
		p[0] = byte(i)
		src := crlset.SourceCRL{Parent: p, URL: fmt.Sprint(i), Public: true}
		for j := int64(1); j <= 200; j++ {
			src.Entries = append(src.Entries, crl.Entry{Serial: big.NewInt(int64(i)*1000 + j).Bytes(), Reason: crl.ReasonUnspecified})
		}
		sources = append(sources, src)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := crlset.Generate(crlset.GeneratorConfig{FilterReasons: true}, sources, i)
		if set.NumEntries() == 0 {
			b.Fatal("empty set")
		}
	}
}

// BenchmarkWorldBuild measures the full pipeline: build the ecosystem and
// run all 20.5 months of simulated time at 1/2000 of internet scale.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := workload.NewWorld(workload.Config{Scale: 0.0005, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteBuild measures construction of the 250-case browser test
// suite (about 750 certificates and their PKI).
func BenchmarkSuiteBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := testsuite.Build(testsuite.Generate())
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Cases) < 244 {
			b.Fatalf("cases = %d", len(s.Cases))
		}
	}
}

// --- Browser fleet (client-side revocation engine, PR 5) ---

var (
	fleetOnce  sync.Once
	fleetWorld *fleet.World
	fleetErr   error
)

func benchFleetWorld(b *testing.B) *fleet.World {
	b.Helper()
	fleetOnce.Do(func() {
		fleetWorld, fleetErr = fleet.New(fleet.Config{
			Browsers: 32, Certs: 128, EvalsPerBrowser: 16, Seed: 42,
		})
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetWorld
}

// BenchmarkBrowserFleet measures one fleet pass (every browser's plan,
// 512 verdicts) per op under three cache regimes: a cold sharded cache
// per op, a pre-warmed shared cache, and the CRLSet local fast path.
func BenchmarkBrowserFleet(b *testing.B) {
	w := benchFleetWorld(b)
	b.Run("ColdCache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Run(fleet.RunOptions{Workers: 4, Store: browser.NewCache()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmCache", func(b *testing.B) {
		store := browser.NewCache()
		if _, err := w.Run(fleet.RunOptions{Workers: 4, Store: store}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Run(fleet.RunOptions{Workers: 4, Store: store}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CRLSetFastPath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Run(fleet.RunOptions{Workers: 4, CRLSet: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBrowserVerdictWarm isolates one warm-cache verdict on the
// sharded cache: browser.TestWarmVerdictAllocatesNothing holds it at
// zero allocations.
func BenchmarkBrowserVerdictWarm(b *testing.B) {
	w := benchFleetWorld(b)
	chain := w.Chains[0]
	client := &browser.Client{
		Profile: browser.Hardened(),
		HTTP:    w.Net.Client(),
		Now:     w.Clock.Now,
		Cache:   browser.NewCache(),
	}
	var v browser.Verdict
	if err := client.EvaluateInto(&v, chain, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.EvaluateInto(&v, chain, nil); err != nil {
			b.Fatal(err)
		}
	}
}
