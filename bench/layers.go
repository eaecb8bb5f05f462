package main

// layers.go is the only file of the benchmark that imports
// repro/internal/...: every call the benchmark makes into the program
// under test is written here, with the span that times it, so a
// refactor can read in one place which symbols the benchmark pins.
//
// Pinned symbols, by package:
//
//	core        RunStudy, PipelineConfig, Pipeline.Runner
//	workload    DefaultConfig, Config{Scale,Seed}, NewWorld, World.{Run,Close,
//	            Cfg,Clock,Net,Hosts,Authorities,Corpus,Archive,RevDB,Sources,
//	            CascadeFeedFullStudy,AuditCascade,AuditCascadeShards},
//	            Authority.{Profile,CA,Parent}, CAProfile.{WebCA,TotalCerts,
//	            CRLShards,SerialBytes,ShardSkew}, CascadeFeed.{Parents,Days,Adds,
//	            Removes,VisitKnown,PublishKind,PublishSharded}, CascadeSeries,
//	            ShardedSeries.{Install,ClientBytes,Manifests,Shards,Parents,
//	            PublicKey}
//	experiments Runner.{World,Scale} and the 23 paper experiments (every entry
//	            of Runner.All except CascadeBandwidth), Result.{Findings}
//	ca          NewRoot, Config, CA.{Issue,IssueRecord,Revoke,IsRevoked,
//	            CRLBytes,CRLURL,OCSPURL,NumShards,Handler,Responder,
//	            CachingResponder,Certificate}, IssueOptions, Record
//	scan        Scanner.Scan
//	corpus      New, Corpus.{RecordScan,Visit,Size,NumScans}, Cert.{Serial,CAName}
//	crawler     Crawler.{CrawlCRLs,ParseCacheHits}, Archive.{Snapshots,Latest},
//	            Snapshot.{CRLs,Bytes,Day}
//	crl         Parse, CRL.{Raw,VerifySignature,NumEntries}, ReasonKeyCompromise,
//	            ReasonUnspecified
//	x509x       Parse, Certificate.{Raw,OCSPServers,SerialNumber,RawSPKI}, SPKIHash
//	revdb       New, XORDigest, Store.{IngestSnapshot,LookupMeta,VisitEntries,Size}
//	segdb       Open, Store.{Stats,Close}, Stats.WALBytes
//	crlset      Generate, GeneratorConfig, MaxBytes
//	cascade     KindRibbon, NewPublisher, PublishConfig, Publisher.Advance, Build,
//	            BuildConfig, Apply, Compact, Decode, VerifyManifest, AppendKey, Parent,
//	            ShardSet.Revoked, Filter.Revoked
//	ribbon      Build, Filter.Contains
//	simnet      New, NewCDN, Network.{Register,RoundTrip,Client}, CDN.Stats
//	simtime     NewClock, Date, Clock.{Now,Advance,AdvanceTo}
//	ocsp        Request.Marshal, NewCertID, ParseResponse, Response.{
//	            VerifySignatureFrom,Find}, StatusGood, StatusRevoked,
//	            NewCachingResponder, CachingResponder.{ServeHTTP,Stats},
//	            Responder.ServeHTTP, Client.Fetch
//	scenario    Heartbleed, HeartbleedConfig, HeartbleedResult, Report.Phase,
//	            PhaseResult.{Ops,ElapsedMS,NetRequests,Wall,WallHist}
//	fleet       New, Config, World.{Run,Chains,Shards,Records,Revoked,CA,Net,Clock},
//	            RunOptions.{Workers,Store,CRLSet,Bloom,CascadeRibbon,
//	            CascadeShards,Latency}, Result
//	browser     NewCache, Client.Evaluate, Hardened
//	hist        NewSharded, Sharded.{Shard,Snapshot}, Recorder.Record, Snapshot.{
//	            Counts,Count,Max,Add,Sub}, BucketLow, NumBuckets
//	revbench    PeakRSSBytes
//
// Deliberately not used, so ROADMAP items 1-3 may delete them: corpus.Legacy,
// browser.SingleLockCache, cascade.KindBloom, CascadeFeed.Publish, and the
// seven bench commands under cmd/.

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/hist"
	"repro/internal/ocsp"
	"repro/internal/revbench"
	"repro/internal/revdb"
	"repro/internal/revdb/segdb"
	"repro/internal/ribbon"
	"repro/internal/scan"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/workload"
	"repro/internal/x509x"
)

// ---------------------------------------------------------------- hist

// latency is the operation-latency histogram of one workload run: one
// single-writer shard per load-generating goroutine, plus snapshots
// merged in from layers that keep their own histogram.
type latency struct {
	shards *hist.Sharded
	merged hist.Snapshot
	// lapped is the snapshot the previous lap ended with.
	lapped *hist.Snapshot
}

func newLatency(shards int) *latency {
	return &latency{shards: hist.NewSharded(shards), lapped: &hist.Snapshot{}}
}

func (l *latency) record(shard int, d time.Duration) { l.shards.Shard(shard).Record(d) }

func (l *latency) snapshot() *hist.Snapshot {
	s := l.shards.Snapshot()
	return s.Add(&l.merged)
}

// lap returns the median, the 99th percentile (both in microseconds)
// and the count of the latencies recorded since the previous lap.
func (l *latency) lap() (p50, p99 float64, n int64) {
	now := l.snapshot()
	d := now.Sub(l.lapped)
	l.lapped = now
	return quantileUS(d, 0.50), quantileUS(d, 0.99), int64(d.Count)
}

// quantileUS returns the q-quantile of everything recorded so far.
func (l *latency) quantileUS(q float64) float64 { return quantileUS(l.snapshot(), q) }

// quantileUS returns the q-quantile in microseconds, interpolated
// linearly inside the bucket that holds the rank. hist.Snapshot.Quantile
// reports the bucket's lower bound, which would make two runs that land
// in the same bucket read exactly alike.
func quantileUS(s *hist.Snapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(hist.BucketLow(i))
			hi := float64(s.Max)
			if i+1 < hist.NumBuckets {
				hi = min(hi, float64(hist.BucketLow(i+1)))
			}
			return (lo + (hi-lo)*(rank-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return float64(s.Max) / 1e3
}

// histRecordNS times hist.Recorder.Record itself.
func histRecordNS(ln *lane, n int) float64 {
	rec := hist.NewSharded(1).Shard(0)
	ln.begin("hist.Recorder.Record")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.Record(time.Duration(400 + i&255))
	}
	d := time.Since(t0)
	ln.end()
	return float64(d.Nanoseconds()) / float64(n)
}

func peakRSSMiB() (float64, error) {
	b, err := revbench.PeakRSSBytes()
	return float64(b) / (1 << 20), err
}

// --------------------------------------------------------------- study

// fingerprint is the key-independent identity of a finished study: CA
// keys are random per build, so only quantities that do not depend on
// signature bytes may be compared across runs.
type fingerprint struct {
	RevDBDigest uint64
	RevDBSize   int
	CorpusSize  int
	Scans       int
	CrawlDays   int
}

// studyRun is one built-and-run measurement study.
type studyRun struct {
	runner *experiments.Runner
}

// runStudy is what a reader reproducing the paper calls.
func runStudy(ln *lane, scale float64, seed int64) (*studyRun, error) {
	ln.begin("core.RunStudy")
	defer ln.end()
	p, err := core.RunStudy(core.PipelineConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &studyRun{runner: p.Runner}, nil
}

// runStudyStaged does what core.RunStudy does with a span round each
// stage, so the traced run can split world construction from the
// day-by-day run.
func runStudyStaged(ln *lane, scale float64, seed int64) (*studyRun, error) {
	cfg := workload.DefaultConfig()
	cfg.Scale = scale
	if seed != 0 {
		cfg.Seed = seed
	}
	ln.begin("workload.NewWorld")
	w, err := workload.NewWorld(cfg)
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("workload.World.Run")
	err = w.Run()
	ln.end()
	if err != nil {
		w.Close()
		return nil, err
	}
	return &studyRun{runner: &experiments.Runner{World: w, Scale: w.Cfg.Scale}}, nil
}

func (s *studyRun) close() error { return s.runner.World.Close() }

func (s *studyRun) fingerprint() fingerprint {
	w := s.runner.World
	return fingerprint{
		RevDBDigest: revdb.XORDigest(w.RevDB),
		RevDBSize:   w.RevDB.Size(),
		CorpusSize:  w.Corpus.Size(),
		Scans:       w.Corpus.NumScans(),
		CrawlDays:   len(w.Archive.Snapshots()),
	}
}

// experiment is one paper table or figure.
type experiment struct {
	id string
	// readsWorld is false for the five experiments that build their own
	// small fixture and cost the same at any scale.
	readsWorld bool
	run        func() (findingsOK int, err error)
}

// paperExperiments lists the 23 experiments of the paper, every entry of
// experiments.Runner.All except CascadeBandwidth (ext-cascade), which is
// the publish workload's subject and would take nine tenths of the time.
func (s *studyRun) paperExperiments() []experiment {
	r := s.runner
	plain := func(f func() *experiments.Result) func() (*experiments.Result, error) {
		return func() (*experiments.Result, error) { return f(), nil }
	}
	list := []struct {
		id    string
		world bool
		fn    func() (*experiments.Result, error)
	}{
		{"fig1", true, plain(r.Figure1)},
		{"fig2", true, plain(r.Figure2)},
		{"fig3", true, plain(r.Figure3)},
		{"sec4.3", true, plain(r.StaplingDeployment)},
		{"fig4", true, plain(r.Figure4)},
		{"fig5", true, r.Figure5},
		{"fig6", true, r.Figure6},
		{"table1", true, r.Table1},
		{"table2", false, experiments.Table2},
		{"fig7", true, plain(r.Figure7)},
		{"sec7.2", true, plain(r.CRLSetCoverage)},
		{"fig8", true, plain(r.Figure8)},
		{"fig9", true, plain(r.Figure9)},
		{"fig10", true, plain(r.Figure10)},
		{"fig11", true, plain(r.Figure11)},
		{"sec3", true, plain(r.DatasetSummary)},
		{"ablation-sharding", true, r.AblationCRLSharding},
		{"ablation-stapling", true, r.AblationStapling},
		{"ablation-encoding", true, plain(r.AblationSetEncoding)},
		{"ablation-failure", false, experiments.AblationFailurePolicy},
		{"availability", false, experiments.Availability},
		{"ext-rfc6961", false, experiments.ExtensionMultiStaple},
		{"ext-shortlived", false, plain(experiments.ExtensionShortLived)},
	}
	out := make([]experiment, len(list))
	for i, e := range list {
		fn := e.fn
		out[i] = experiment{id: e.id, readsWorld: e.world, run: func() (int, error) {
			res, err := fn()
			if err != nil {
				return 0, err
			}
			ok := 0
			for _, f := range res.Findings {
				if f.OK {
					ok++
				}
			}
			return ok, nil
		}}
	}
	return out
}

// studyProbes replays inputs the built world holds into one layer at a
// time. The world is used up afterwards: its clock has moved.
func (s *studyRun) studyProbes(ln *lane, tmpDir string, procs int) (map[string]float64, error) {
	w := s.runner.World
	m := make(map[string]float64)
	end := w.Clock.Now()

	// ca: full issuance on a fresh CA shaped like the largest authority.
	largest := w.Authorities[0]
	for _, a := range w.Authorities {
		if a.Profile.TotalCerts > largest.Profile.TotalCerts {
			largest = a
		}
	}
	fresh, err := ca.NewRoot(ca.Config{
		Name:         "Probe",
		NumCRLShards: largest.Profile.CRLShards,
		SerialBytes:  largest.Profile.SerialBytes,
		ShardSkew:    largest.Profile.ShardSkew,
		CRLBaseURL:   "http://crl.probe.test/crl",
		OCSPBaseURL:  "http://ocsp.probe.test/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
		Clock:        w.Clock.Now,
		Seed:         w.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	const issued = 512
	raws := make([][]byte, 0, issued)
	ln.begin("ca.CA.Issue")
	t0 := time.Now()
	for i := 0; i < issued; i++ {
		cert, _, err := fresh.Issue(ca.IssueOptions{
			CommonName: fmt.Sprintf("probe-%d.test", i),
			NotBefore:  end.AddDate(0, -1, 0),
			NotAfter:   end.AddDate(1, 0, 0),
		})
		if err != nil {
			ln.end()
			return nil, err
		}
		raws = append(raws, cert.Raw)
	}
	m["ca.issue_certs_per_s"] = issued / time.Since(t0).Seconds()
	ln.end()

	ln.begin("x509x.Parse")
	t0 = time.Now()
	for _, raw := range raws {
		if _, err := x509x.Parse(raw); err != nil {
			ln.end()
			return nil, err
		}
	}
	m["x509x.parse_us"] = time.Since(t0).Seconds() * 1e6 / issued
	ln.end()

	// scan and corpus.
	sc := &scan.Scanner{Hosts: w.Hosts}
	ln.begin("scan.Scanner.Scan")
	t0 = time.Now()
	res := sc.Scan(end)
	scanTime := time.Since(t0)
	ln.end()
	m["scan.hosts_per_s"] = float64(len(w.Hosts)) / scanTime.Seconds()
	recorded := corpus.New()
	ln.begin("corpus.Corpus.RecordScan")
	t0 = time.Now()
	recorded.RecordScan(end, res.Advertisements)
	m["corpus.record_ads_per_s"] = float64(len(res.Advertisements)) / time.Since(t0).Seconds()
	ln.end()
	if recorded.Size() != len(res.Advertisements) {
		return nil, fmt.Errorf("corpus record probe kept %d of %d advertisements", recorded.Size(), len(res.Advertisements))
	}
	var visited, serialBytes int
	ln.begin("corpus.Corpus.Visit")
	t0 = time.Now()
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		visited++
		serialBytes += len(ct.Serial()) + len(ct.CAName())
		return true
	})
	m["corpus.visit_certs_per_s"] = float64(visited) / time.Since(t0).Seconds()
	ln.end()
	if visited != w.Corpus.Size() || serialBytes == 0 {
		return nil, fmt.Errorf("corpus visit probe saw %d of %d certificates", visited, w.Corpus.Size())
	}

	// crl and revdb, over what the study's own crawl archived.
	issuers := make(map[string]*x509x.Certificate)
	var urls []string
	var cas []*ca.CA
	for _, a := range w.Authorities {
		cas = append(cas, a.CA)
		for shard := 0; shard < a.CA.NumShards(); shard++ {
			issuers[a.CA.CRLURL(shard)] = a.CA.Certificate()
			urls = append(urls, a.CA.CRLURL(shard))
		}
	}
	final, ok := w.Archive.Latest()
	if !ok {
		return nil, fmt.Errorf("study world has no crawl archive")
	}
	var parsedBytes, parsedEntries int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ln.begin("crl.Parse")
	t0 = time.Now()
	for _, c := range final.CRLs {
		p, err := crl.Parse(c.Raw)
		if err != nil {
			ln.end()
			return nil, err
		}
		parsedBytes += len(c.Raw)
		parsedEntries += p.NumEntries()
	}
	parseTime := time.Since(t0)
	ln.end()
	runtime.ReadMemStats(&ms1)
	m["crl.parse_mb_per_s"] = float64(parsedBytes) / 1e6 / parseTime.Seconds()
	m["crl.parse_entries_per_s"] = float64(parsedEntries) / parseTime.Seconds()
	m["crl.parse_allocs_per_crl"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(final.CRLs))
	ln.begin("crl.CRL.VerifySignature")
	t0 = time.Now()
	for u, c := range final.CRLs {
		if err := c.VerifySignature(issuers[u]); err != nil {
			ln.end()
			return nil, fmt.Errorf("verify %s: %w", u, err)
		}
	}
	m["crl.verify_us"] = time.Since(t0).Seconds() * 1e6 / float64(len(final.CRLs))
	ln.end()

	mem := revdb.New()
	presented, rate := replayArchive(ln, "revdb.DB.IngestSnapshot", mem, w.Archive)
	m["revdb.ingest_entries_per_s"] = rate
	m["revdb.entries"] = float64(mem.Size())
	if mem.Size() != w.RevDB.Size() || revdb.XORDigest(mem) != revdb.XORDigest(w.RevDB) {
		return nil, fmt.Errorf("revdb replay holds %d entries, the world %d", mem.Size(), w.RevDB.Size())
	}
	m["revdb.lookup_ns"] = lookupAll(ln, "revdb.DB.LookupMeta", mem)

	disk, err := segdb.Open(tmpDir, nil)
	if err != nil {
		return nil, err
	}
	_, rate = replayArchive(ln, "segdb.Store.IngestSnapshot", disk, w.Archive)
	m["segdb.ingest_entries_per_s"] = rate
	m["segdb.lookup_ns"] = lookupAll(ln, "segdb.Store.LookupMeta", disk)
	m["segdb.wal_bytes_per_entry"] = float64(disk.Stats().WALBytes) / float64(presented)
	// Sizes, not XORDigest: segdb reads crl.ReasonAbsent (-1) back as
	// reason 255, so its digest differs from the in-memory store's for
	// any world that holds a revocation without a reason code. The
	// lookups above found every key or lookup_ns reads 0.
	size := disk.Size()
	if err := disk.Close(); err != nil {
		return nil, err
	}
	if size != mem.Size() || m["segdb.lookup_ns"] == 0 {
		return nil, fmt.Errorf("segdb replay holds %d entries, the in-memory store %d", size, mem.Size())
	}

	// crlset: one generation over the final CRL universe, with the
	// thresholds workload.World scales down the same way.
	gen := crlset.GeneratorConfig{
		MaxBytes:      max(4096, int(float64(crlset.MaxBytes)*w.Cfg.Scale)),
		MaxCRLEntries: max(5, int(float64(w.Cfg.CRLSetFullScaleMaxEntries)*w.Cfg.Scale)),
		FilterReasons: true,
	}
	sources := w.Sources(end)
	ln.begin("crlset.Generate")
	t0 = time.Now()
	set := crlset.Generate(gen, sources, 1)
	m["crlset.generate_ms"] = time.Since(t0).Seconds() * 1e3
	ln.end()
	if set.NumParents() == 0 {
		return nil, fmt.Errorf("crlset probe generated an empty set")
	}

	// crawler: a fresh crawler over every shard URL, twice on one day.
	cr := &crawler.Crawler{Client: w.Net.Client(), Now: w.Clock.Now, Parallelism: procs}
	ln.begin("crawler.Crawler.CrawlCRLs")
	t0 = time.Now()
	cold := cr.CrawlCRLs(urls)
	coldTime := time.Since(t0)
	ln.end()
	ln.begin("crawler.Crawler.CrawlCRLs")
	t0 = time.Now()
	warm := cr.CrawlCRLs(urls)
	warmTime := time.Since(t0)
	ln.end()
	if len(cold.CRLs) != len(urls) || len(warm.CRLs) != len(urls) {
		return nil, fmt.Errorf("crawl probe fetched %d then %d of %d CRLs", len(cold.CRLs), len(warm.CRLs), len(urls))
	}
	m["crawler.cold_crawl_s"] = coldTime.Seconds()
	m["crawler.cold_mb_per_s"] = float64(cold.Bytes) / 1e6 / coldTime.Seconds()
	m["crawler.warm_crawl_s"] = warmTime.Seconds()
	m["crawler.parse_cache_hit_ratio"] = float64(cr.ParseCacheHits) / float64(len(urls))

	// ca: a day later every shard's CRL is signed again.
	w.Clock.Advance(24 * time.Hour)
	regen, err := crlRegenMS(ln, cas)
	if err != nil {
		return nil, err
	}
	m["ca.crl_regen_ms"] = regen
	return m, nil
}

// replayArchive ingests every archived crawl day into store and returns
// how many CRL entries that presented and the rate per second.
func replayArchive(ln *lane, name string, store revdb.Store, archive *crawler.Archive) (presented int, perSecond float64) {
	for _, snap := range archive.Snapshots() {
		for _, c := range snap.CRLs {
			presented += c.NumEntries()
		}
	}
	ln.begin(name)
	t0 := time.Now()
	for _, snap := range archive.Snapshots() {
		store.IngestSnapshot(snap)
	}
	d := time.Since(t0)
	ln.end()
	return presented, float64(presented) / d.Seconds()
}

// lookupAll looks every stored revocation up once and returns the mean
// nanoseconds per lookup.
func lookupAll(ln *lane, name string, store revdb.Store) float64 {
	type key struct {
		url    string
		serial []byte
	}
	var keys []key
	store.VisitEntries(func(e *revdb.Entry) bool {
		keys = append(keys, key{e.CRLURL, e.Serial.Bytes()})
		return true
	})
	ln.begin(name)
	t0 := time.Now()
	found := 0
	for _, k := range keys {
		if _, ok := store.LookupMeta(k.url, k.serial); ok {
			found++
		}
	}
	d := time.Since(t0)
	ln.end()
	if found != len(keys) || found == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(found)
}

// crlRegenMS signs every shard of every CA once and returns the total
// milliseconds. The caller moves the clock first, so nothing is reused
// for being inside its validity window.
func crlRegenMS(ln *lane, cas []*ca.CA) (float64, error) {
	ln.begin("ca.CA.CRLBytes")
	defer ln.end()
	t0 := time.Now()
	for _, authority := range cas {
		for shard := 0; shard < authority.NumShards(); shard++ {
			if _, err := authority.CRLBytes(shard); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0).Seconds() * 1e3, nil
}

// ------------------------------------------------------------- publish

// publishWorld is a built-and-run world whose revocations get published
// as filter cascades.
type publishWorld struct {
	w   *workload.World
	web map[cascade.Parent]bool
}

func newPublishWorld(ln *lane, scale float64, seed int64) (*publishWorld, error) {
	s, err := runStudyStaged(ln, scale, seed)
	if err != nil {
		return nil, err
	}
	p := &publishWorld{w: s.runner.World, web: make(map[cascade.Parent]bool)}
	for _, a := range p.w.Authorities {
		if a.Profile.WebCA() {
			p.web[cascade.Parent(a.Parent)] = true
		}
	}
	return p, nil
}

func (p *publishWorld) close() error { return p.w.Close() }

// webTrust is a browser's trust predicate: the web CAs' shards only.
func (p *publishWorld) webTrust(parent cascade.Parent) bool { return p.web[parent] }

// published is what one publish repetition produced.
type published struct {
	feed     *workload.CascadeFeed
	mono     *workload.CascadeSeries
	sharded  *workload.ShardedSeries
	shardSet *cascade.ShardSet
	compact  []byte
	// knownPasses and knownKeys count the publisher's reads of the known
	// population (traced run only).
	knownPasses, knownKeys int64
	epochMS                []float64
}

// publish runs the publisher side and then the client side of one full
// study of daily epochs. A browser's daily update is the operation whose
// latency goes to lat; failed counts outputs that were wrong.
func (p *publishWorld) publish(ln *lane, lat *latency) (out *published, ops, failed int64, err error) {
	out = &published{}
	ln.begin("workload.World.CascadeFeedFullStudy")
	out.feed, err = p.w.CascadeFeedFullStudy()
	ln.end()
	if err != nil {
		return nil, 0, 0, err
	}
	feed := out.feed
	if ln != nil {
		visit := feed.VisitKnown
		feed.VisitKnown = func(fn func(key []byte) bool) {
			out.knownPasses++
			ln.begin("corpus.Corpus.Visit")
			visit(func(key []byte) bool {
				out.knownKeys++
				return fn(key)
			})
			ln.end()
		}
		out.mono, err = publishByEpoch(ln, feed, out)
	} else {
		out.mono, err = feed.PublishKind(cascade.KindRibbon)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	ln.begin("cascade.publish_sharded")
	out.sharded, err = feed.PublishSharded(cascade.KindRibbon)
	ln.end()
	if err != nil {
		return nil, 0, 0, err
	}
	ops = 2

	// A client of the monolithic chain: day zero's snapshot, then every
	// daily delta.
	cur := out.mono.First
	ln.begin("cascade.Apply")
	for _, delta := range out.mono.Deltas[1:] {
		next, err := cascade.Apply(cur, delta)
		ops++
		if err != nil {
			failed++
			continue
		}
		cur = next
	}
	ln.end()
	if !bytes.Equal(cur, out.mono.Final) {
		failed++
	}
	// A client that was offline for the whole study catches up with one
	// compacted delta.
	ln.begin("cascade.Compact")
	out.compact, err = cascade.Compact(out.mono.First, out.mono.Deltas[1:])
	ln.end()
	ops++
	if err != nil {
		return nil, 0, 0, err
	}
	caught, err := cascade.Apply(out.mono.First, out.compact)
	if err != nil || !bytes.Equal(caught, out.mono.Final) {
		failed++
	}

	// A browser: it trusts the web CAs, so each day it verifies the
	// signed manifest and applies the day's delta to each shard it
	// holds. That daily update is the workload's operation; four
	// browsers in a row give a repetition enough of them for a 99th
	// percentile.
	ln.begin("cascade.daily_update")
	for browser := 0; browser < 4; browser++ {
		held := make(map[cascade.Parent][]byte)
		for day, manifest := range out.sharded.Manifests {
			t0 := time.Now()
			_, err := cascade.VerifyManifest(manifest, out.sharded.PublicKey)
			bad := err != nil
			for _, parent := range out.sharded.Parents {
				if !p.webTrust(parent) {
					continue
				}
				series := out.sharded.Shards[parent]
				if day == 0 {
					held[parent] = series.First
				} else if next, err := cascade.Apply(held[parent], series.Deltas[day]); err != nil {
					bad = true
				} else {
					held[parent] = next
				}
			}
			lat.record(0, time.Since(t0))
			ops++
			if bad {
				failed++
			}
		}
		for parent, snapshot := range held {
			if !bytes.Equal(snapshot, out.sharded.Shards[parent].Final) {
				failed++
			}
		}
	}
	ln.end()
	ln.begin("workload.ShardedSeries.Install")
	out.shardSet, err = out.sharded.Install(p.webTrust)
	ln.end()
	ops++
	if err != nil {
		return nil, 0, 0, err
	}
	return out, ops, failed, nil
}

// publishByEpoch is CascadeFeed.PublishKind(KindRibbon) with a span per
// daily epoch.
func publishByEpoch(ln *lane, feed *workload.CascadeFeed, out *published) (*workload.CascadeSeries, error) {
	ln.begin("cascade.publish_mono")
	defer ln.end()
	pub := cascade.NewPublisher(cascade.PublishConfig{
		Parents:    feed.Parents,
		VisitKnown: feed.VisitKnown,
		MaxAge:     48 * time.Hour,
		LevelKind:  cascade.KindRibbon,
	})
	series := &workload.CascadeSeries{
		Days:          feed.Days,
		Deltas:        make([][]byte, len(feed.Days)),
		SnapshotSizes: make([]int, len(feed.Days)),
	}
	for i, day := range feed.Days {
		ln.begin("cascade.Publisher.Advance")
		t0 := time.Now()
		snap, delta, err := pub.Advance(day, feed.Adds[i], feed.Removes[i])
		out.epochMS = append(out.epochMS, time.Since(t0).Seconds()*1e3)
		ln.end()
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		if i == 0 {
			series.First = snap
		}
		series.Final = snap
		series.Deltas[i] = delta
		series.SnapshotSizes[i] = len(snap)
	}
	return series, nil
}

// audit checks the last published artifacts against the world's ground
// truth and returns false positives, false negatives and missed
// revocations summed over the monolithic and the sharded form.
func (p *publishWorld) audit(ln *lane, out *published) (fp, fn, missed int, err error) {
	day := out.mono.Days[len(out.mono.Days)-1]
	ln.begin("workload.World.AuditCascade")
	a, err := p.w.AuditCascade(out.mono.Final, day)
	ln.end()
	if err != nil {
		return 0, 0, 0, err
	}
	ln.begin("workload.World.AuditCascadeShards")
	b, err := p.w.AuditCascadeShards(out.shardSet, day)
	ln.end()
	if err != nil {
		return 0, 0, 0, err
	}
	if a.CertsChecked == 0 || b.CertsChecked == 0 || a.ListedRevocations == 0 {
		return 0, 0, 0, fmt.Errorf("cascade audit checked nothing: %+v %+v", a, b)
	}
	return a.FalsePositives + b.FalsePositives, a.FalseNegatives + b.FalseNegatives, a.Missed + b.Missed, nil
}

// bytesPerClientDay is what a browser trusting the web CAs downloads
// per day over the sharded series.
func (p *publishWorld) bytesPerClientDay(out *published) float64 {
	total, days := out.sharded.ClientBytes(p.webTrust)
	return float64(total) / float64(days)
}

// publishProbes measures single cascade layers on the artifacts of the
// last repetition.
func (p *publishWorld) publishProbes(ln *lane, out *published) (map[string]float64, error) {
	m := make(map[string]float64)
	days := float64(len(out.mono.Days))

	// The final revoked set: every add not later removed.
	removed := make(map[string]bool)
	for _, day := range out.feed.Removes {
		for _, k := range day {
			removed[string(k)] = true
		}
	}
	var revoked [][]byte
	for _, day := range out.feed.Adds {
		for _, k := range day {
			if !removed[string(k)] {
				revoked = append(revoked, k)
			}
		}
	}
	final := out.mono.Days[len(out.mono.Days)-1]
	ln.begin("cascade.Build")
	t0 := time.Now()
	flt, err := cascade.Build(revoked, out.feed.VisitKnown, out.feed.Parents, cascade.BuildConfig{
		Epoch:     1,
		BuiltAt:   final,
		LevelKind: cascade.KindRibbon,
	})
	m["cascade.build_full_s"] = time.Since(t0).Seconds()
	ln.end()
	if err != nil {
		return nil, err
	}
	for _, k := range revoked {
		if !flt.Revoked(k) {
			return nil, fmt.Errorf("full cascade build misses a revoked key")
		}
	}
	ln.begin("ribbon.Build")
	t0 = time.Now()
	_, _, err = ribbon.Build(0, revoked, 7)
	m["ribbon.build_keys_per_s"] = float64(len(revoked)) / time.Since(t0).Seconds()
	ln.end()
	if err != nil {
		return nil, err
	}

	const decodes = 64
	ln.begin("cascade.Decode")
	t0 = time.Now()
	for i := 0; i < decodes; i++ {
		if _, err := cascade.Decode(out.mono.Final); err != nil {
			ln.end()
			return nil, err
		}
	}
	m["cascade.decode_us"] = time.Since(t0).Seconds() * 1e6 / decodes
	ln.end()

	t0 = time.Now()
	fp, fn, missed, err := p.audit(ln, out)
	if err != nil {
		return nil, err
	}
	m["cascade.audit_s"] = time.Since(t0).Seconds()
	m["cascade.audit_fp"] = float64(fp)
	m["cascade.audit_fn"] = float64(fn + missed)

	var chain, manifests int
	for _, d := range out.mono.Deltas {
		chain += len(d)
	}
	for _, mf := range out.sharded.Manifests {
		manifests += len(mf)
	}
	m["cascade.snapshot_bytes"] = float64(len(out.mono.Final))
	m["cascade.delta_chain_bytes"] = float64(chain)
	m["cascade.catchup_bytes"] = float64(len(out.compact))
	m["cascade.manifest_bytes_per_day"] = float64(manifests) / days
	m["cascade.mono_bytes_per_day"] = float64(len(out.mono.First)+chain) / days
	m["cascade.bytes_per_client_day"] = p.bytesPerClientDay(out)
	return m, nil
}

// --------------------------------------------------------------- serve

// Request kinds of the serving mix, as cmd/revload pre-encodes them.
const (
	kindOCSPGet = iota
	kindOCSPPost
	kindCRLGet
)

// loadReq is one pre-encoded request. Each client owns its requests, so
// a POST body can be rewound without synchronisation.
type loadReq struct {
	req  *http.Request
	body *bytes.Reader
	der  []byte
	leaf int32
}

// laneRef lets a handler find the lane of the client whose request it is
// serving: the reference travels in the request's context, and the
// client points it at its current lane.
type laneRef struct{ ln *lane }

type laneKey struct{}

// tracedOrigin records a span for every request that reaches the CA's
// own handler, which is how origin work is counted: CA.CachingResponder
// builds a new responder per call, so the handler's own statistics
// cannot be read from outside.
type tracedOrigin struct{ next http.Handler }

func (o tracedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ref, _ := r.Context().Value(laneKey{}).(*laneRef)
	if ref == nil {
		o.next.ServeHTTP(w, r)
		return
	}
	ref.ln.begin("ca.Handler")
	o.next.ServeHTTP(w, r)
	ref.ln.end()
}

// serveStack is one CA behind a CDN on both of its hosts, with a frozen
// or churning virtual clock and a pre-encoded request sequence per
// client.
type serveStack struct {
	clock   *simtime.Clock
	ca      *ca.CA
	net     *simnet.Network
	cdns    []*simnet.CDN
	records []*ca.Record
	revoked []bool
	seqs    [][]loadReq
	refs    []*laneRef

	nextRevoke  int
	lastRevoked time.Time
}

type serveConfig struct {
	leaves  int
	shards  int
	seqLen  int
	clients int
	seed    int64
	traced  bool
}

func newServeStack(cfg serveConfig) (*serveStack, error) {
	s := &serveStack{
		clock:   simtime.NewClock(simtime.Date(2015, time.March, 1)),
		net:     simnet.New(),
		revoked: make([]bool, cfg.leaves),
	}
	// CA keys are random, and every OCSP GET carries the CA's key hash
	// in base64 in its path. Whether those characters happen to hold a
	// '/' decides whether every URL of the run carries a %2F escape and
	// takes net/url's slower path, which is 15 % of the time per request
	// and nothing a seed controls. Seven requests in eight carry one
	// somewhere, so CAs are drawn until this one's all do.
	for {
		authority, err := ca.NewRoot(ca.Config{
			Name:         "Serve",
			NumCRLShards: cfg.shards,
			CRLBaseURL:   "http://crl.serve.test/crl",
			OCSPBaseURL:  "http://ocsp.serve.test/ocsp",
			IncludeCRLDP: true,
			IncludeOCSP:  true,
			Clock:        s.clock.Now,
			Seed:         cfg.seed,
		})
		if err != nil {
			return nil, err
		}
		s.ca = authority
		// Two serials of the CA's eight bytes that differ in every byte:
		// what their requests share is the part every request shares.
		a := base64.StdEncoding.EncodeToString(s.ocspRequest(big.NewInt(0x0101010101010101)))
		b := base64.StdEncoding.EncodeToString(s.ocspRequest(big.NewInt(0x7e7e7e7e7e7e7e7e)))
		shared := 0
		for shared < len(a) && shared < len(b) && a[shared] == b[shared] {
			shared++
		}
		if strings.Contains(a[:shared], "/") {
			break
		}
	}
	now := s.clock.Now()
	for i := 0; i < cfg.leaves; i++ {
		// Ten years of validity: serve-churn moves the clock half an
		// hour at a time and must not run the leaves into expiry.
		s.records = append(s.records, s.ca.IssueRecord(ca.IssueOptions{
			CommonName: fmt.Sprintf("leaf-%05d.serve.test", i),
			NotBefore:  now.AddDate(0, -1, 0),
			NotAfter:   now.AddDate(10, 0, 0),
		}))
	}
	// One leaf in twelve starts out revoked, spread over the popularity
	// ranks so the popular head stays mostly good.
	for i := 11; i < cfg.leaves; i += 12 {
		if err := s.ca.Revoke(s.records[i].Serial, now, crl.ReasonUnspecified); err != nil {
			return nil, err
		}
		s.revoked[i] = true
	}
	s.lastRevoked = now
	s.clock.Advance(time.Hour)
	for _, host := range []string{"crl.serve.test", "ocsp.serve.test"} {
		origin := s.ca.Handler()
		if cfg.traced {
			origin = tracedOrigin{origin}
		}
		cdn := simnet.NewCDN(origin, s.clock.Now)
		s.cdns = append(s.cdns, cdn)
		s.net.Register(host, cdn)
	}

	for c := 0; c < cfg.clients; c++ {
		ref := &laneRef{}
		s.refs = append(s.refs, ref)
		ctx := context.Background()
		if cfg.traced {
			ctx = context.WithValue(ctx, laneKey{}, ref)
		}
		rng := rand.New(rand.NewSource(cfg.seed<<8 + int64(c)))
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(cfg.leaves-1))
		seq := make([]loadReq, cfg.seqLen)
		for i := range seq {
			leaf := int(zipf.Uint64())
			kind, r := kindOCSPGet, rng.Float64()
			switch {
			case r < 0.02:
				kind = kindCRLGet
			case r < 0.12:
				kind = kindOCSPPost
			}
			var err error
			if seq[i], err = s.encode(ctx, leaf, kind, s.ca.OCSPURL()); err != nil {
				return nil, err
			}
		}
		s.seqs = append(s.seqs, seq)
	}
	return s, nil
}

// encode builds one request for leaf. ocspURL is the responder's URL as
// certificates advertise it, or its bare host for a request handed to
// the responder directly, behind the CA's mux.
func (s *serveStack) encode(ctx context.Context, leaf, kind int, ocspURL string) (loadReq, error) {
	rec := s.records[leaf]
	lr := loadReq{leaf: int32(leaf)}
	var err error
	switch kind {
	case kindCRLGet:
		lr.req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.ca.CRLURL(rec.Shard), nil)
	case kindOCSPPost:
		lr.der = s.ocspRequest(rec.Serial)
		lr.body = bytes.NewReader(lr.der)
		lr.req, err = http.NewRequestWithContext(ctx, http.MethodPost, ocspURL, io.NopCloser(lr.body))
		if err == nil {
			lr.req.Header.Set("Content-Type", "application/ocsp-request")
		}
	default:
		encoded := base64.StdEncoding.EncodeToString(s.ocspRequest(rec.Serial))
		lr.req, err = http.NewRequestWithContext(ctx, http.MethodGet, ocspURL+"/"+url.PathEscape(encoded), nil)
	}
	return lr, err
}

func (s *serveStack) ocspRequest(serial *big.Int) []byte {
	id := ocsp.NewCertID(s.ca.Certificate(), serial)
	return (&ocsp.Request{IDs: []ocsp.CertID{id}}).Marshal()
}

// roundTrip sends one pre-encoded request through the fabric, drains the
// body and reports whether the answer was HTTP 200 and non-empty.
func (s *serveStack) roundTrip(ln *lane, lr *loadReq) bool {
	if lr.body != nil {
		lr.body.Reset(lr.der)
	}
	ln.begin("simnet.Network.RoundTrip")
	resp, err := s.net.RoundTrip(lr.req)
	ln.end()
	if err != nil {
		return false
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && n > 0 && resp.StatusCode == http.StatusOK
}

// churn is one write beside the reads: the virtual clock moves half an
// hour, so cached responses and CRLs age out, and when revoke is set the
// most popular leaf that is still good gets revoked, which evicts its
// pre-signed response and dirties its CRL shard.
func (s *serveStack) churn(ln *lane, revoke bool) error {
	s.clock.Advance(30 * time.Minute)
	if !revoke {
		return nil
	}
	for s.nextRevoke < len(s.records) && s.revoked[s.nextRevoke] {
		s.nextRevoke++
	}
	if s.nextRevoke == len(s.records) {
		return nil
	}
	ln.begin("ca.CA.Revoke")
	err := s.ca.Revoke(s.records[s.nextRevoke].Serial, s.clock.Now(), crl.ReasonKeyCompromise)
	ln.end()
	s.revoked[s.nextRevoke] = true
	s.lastRevoked = s.clock.Now()
	return err
}

// verify moves the clock one OCSP validity past the last revocation, so
// no answer produced before it can still be served, and then checks one
// answer per distinct requested serial in full: it must parse, carry the
// CA's signature and state what the CA's own books say.
func (s *serveStack) verify() (checked, failed int64, err error) {
	s.clock.AdvanceTo(s.lastRevoked.Add(96*time.Hour + time.Second))
	seen := make(map[int32]bool)
	issuer := s.ca.Certificate()
	for _, seq := range s.seqs {
		for i := range seq {
			leaf := seq[i].leaf
			if seen[leaf] {
				continue
			}
			seen[leaf] = true
			lr, err := s.encode(context.Background(), int(leaf), kindOCSPGet, s.ca.OCSPURL())
			if err != nil {
				return 0, 0, err
			}
			checked++
			resp, err := s.net.RoundTrip(lr.req)
			if err != nil {
				failed++
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				failed++
				continue
			}
			serial := s.records[leaf].Serial
			parsed, err := ocsp.ParseResponse(body)
			if err != nil || parsed.VerifySignatureFrom(issuer) != nil {
				failed++
				continue
			}
			sr, ok := parsed.Find(ocsp.NewCertID(issuer, serial))
			_, revoked := s.ca.IsRevoked(serial)
			want := ocsp.StatusGood
			if revoked {
				want = ocsp.StatusRevoked
			}
			if !ok || sr.Status != want || revoked != s.revoked[leaf] {
				failed++
			}
		}
	}
	return checked, failed, nil
}

// cdnHitRatio is the share of all requests so far that a CDN answered
// from its cache.
func (s *serveStack) cdnHitRatio() float64 {
	var hits, all int64
	for _, cdn := range s.cdns {
		st := cdn.Stats()
		hits += st.Hits
		all += st.Hits + st.Misses + st.Bypasses
	}
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// discardRW throws a response away while paying the header-map cost a
// real ResponseWriter charges.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 8)
	}
	return d.h
}
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// serveProbes calls the responders directly, without fabric or CDN.
// With churn set, the replay through a benchmark-owned caching responder
// gets the workload's writes beside its reads.
func (s *serveStack) serveProbes(ln *lane, churn bool) (map[string]float64, error) {
	m := make(map[string]float64)
	// OCSP requests only, as the responder sees them behind the mux.
	var seq []*loadReq
	for i := range s.seqs[0] {
		lr := &s.seqs[0][i]
		if lr.req.URL.Host != "ocsp.serve.test" {
			continue
		}
		kind := kindOCSPGet
		if lr.body != nil {
			kind = kindOCSPPost
		}
		direct, err := s.encode(context.Background(), int(lr.leaf), kind, "http://ocsp.serve.test")
		if err != nil {
			return nil, err
		}
		seq = append(seq, &direct)
	}
	if len(seq) > 16384 {
		seq = seq[:16384]
	}
	serve := func(h http.Handler, lr *loadReq, w *discardRW) {
		if lr.body != nil {
			lr.body.Reset(lr.der)
		}
		clear(w.h)
		h.ServeHTTP(w, lr.req)
	}
	w := &discardRW{}

	// Signing path: the plain responder signs every answer.
	plain := s.ca.Responder()
	signed := min(len(seq), 2048)
	ln.begin("ocsp.Responder.ServeHTTP")
	t0 := time.Now()
	for _, lr := range seq[:signed] {
		serve(plain, lr, w)
	}
	m["ocsp.serve_sign_us"] = time.Since(t0).Seconds() * 1e6 / float64(signed)
	ln.end()

	// Hit path: a caching responder, warmed, on a frozen clock.
	cached := s.ca.CachingResponder()
	for _, lr := range seq {
		serve(cached, lr, w)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ln.begin("ocsp.CachingResponder.ServeHTTP")
	t0 = time.Now()
	const passes = 8
	for p := 0; p < passes; p++ {
		for _, lr := range seq {
			serve(cached, lr, w)
		}
	}
	hitTime := time.Since(t0)
	ln.end()
	runtime.ReadMemStats(&ms1)
	n := float64(passes * len(seq))
	m["ocsp.serve_hit_ns"] = float64(hitTime.Nanoseconds()) / n
	m["ocsp.serve_hit_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / n

	// The same responder under the workload's writes, for as many
	// requests as move the clock through ten OCSP validity windows.
	before := cached.Stats()
	var revokeTime time.Duration
	var revokes, events int
	ln.begin("ocsp.CachingResponder.ServeHTTP")
	for i := 0; i < 10*192*churnStride; i++ {
		serve(cached, seq[i%len(seq)], w)
		if churn && i%churnStride == churnStride-1 {
			events++
			revoke := events%revokeEvery == 0
			t0 := time.Now()
			if err := s.churn(ln, revoke); err != nil {
				ln.end()
				return nil, err
			}
			if revoke {
				revokeTime += time.Since(t0)
				revokes++
			}
		}
	}
	ln.end()
	after := cached.Stats()
	m["ocsp.signs"] = float64(after.Signs - before.Signs)
	m["ocsp.evictions"] = float64(after.Evictions - before.Evictions)
	if q := float64(after.Hits - before.Hits + after.Misses - before.Misses); q > 0 {
		m["ocsp.hit_ratio"] = float64(after.Hits-before.Hits) / q
	}
	if revokes > 0 {
		m["ca.revoke_us"] = revokeTime.Seconds() * 1e6 / float64(revokes)
	}

	s.clock.Advance(24 * time.Hour)
	regen, err := crlRegenMS(ln, []*ca.CA{s.ca})
	if err != nil {
		return nil, err
	}
	m["ca.crl_regen_ms"] = regen
	m["simnet.cdn_hit_ratio"] = s.cdnHitRatio()
	return m, nil
}

// ---------------------------------------------------------- heartbleed

type heartbleedConfig struct {
	clients, certs, evals, workers, stampede, brownout int
	seed                                               int64
}

// heartbleedOutcome is what one scenario run reported.
type heartbleedOutcome struct {
	digest           string
	ops              int64
	convergenceVH    float64
	staleGoodFinal   int
	stormRevocations int
	staleWindowGood  int
	stampedeFetches  int64
	brownoutRejects  int
	brownoutRequests int64
	stormRevokeP50US float64
	phaseMS          map[string]float64
}

// runHeartbleed runs the scenario once. The baseline-warm verdict
// latencies are merged into warm and the brownout check latencies into
// brownout.
func runHeartbleed(ln *lane, cfg heartbleedConfig, warm, brownout *latency) (*heartbleedOutcome, error) {
	ln.begin("scenario.Heartbleed")
	res, err := scenario.Heartbleed(scenario.HeartbleedConfig{
		Clients:         cfg.clients,
		Certs:           cfg.certs,
		EvalsPerClient:  cfg.evals,
		Workers:         cfg.workers,
		StampedeClients: cfg.stampede,
		BrownoutChecks:  cfg.brownout,
		Seed:            cfg.seed,
	})
	ln.end()
	if err != nil {
		return nil, err
	}
	out := &heartbleedOutcome{
		digest:           res.Digest,
		convergenceVH:    res.ConvergenceVirtualHours,
		staleGoodFinal:   res.StaleGoodFinal,
		stormRevocations: res.StormRevocations,
		staleWindowGood:  res.StaleWindowGood,
		stampedeFetches:  res.Stampede.Fetches,
		brownoutRejects:  res.BrownoutRejects,
		phaseMS:          make(map[string]float64),
	}
	for _, p := range res.Report.Phases {
		out.ops += p.Ops
		out.phaseMS[p.Name] = p.ElapsedMS
	}
	for name, dst := range map[string]*latency{"baseline-warm": warm, "brownout": brownout} {
		p := res.Report.Phase(name)
		if p == nil || p.WallHist == nil {
			return nil, fmt.Errorf("heartbleed report has no %s histogram", name)
		}
		dst.merged.Add(p.WallHist)
	}
	out.brownoutRequests = res.Report.Phase("brownout").NetRequests
	if p := res.Report.Phase("heartbleed-storm"); p != nil {
		out.stormRevokeP50US = float64(p.Wall.P50Ns) / 1e3
	}
	return out, nil
}

// ------------------------------------------------------ fleet, offline

type fleetConfig struct {
	browsers, certs, evals int
	seed                   int64
}

// fleetWorld is fleet.World: a frozen PKI and a browsing plan.
type fleetWorld struct {
	w *fleet.World
}

func newFleetWorld(ln *lane, cfg fleetConfig) (*fleetWorld, error) {
	ln.begin("fleet.New")
	defer ln.end()
	w, err := fleet.New(fleet.Config{
		Browsers:        cfg.browsers,
		Certs:           cfg.certs,
		EvalsPerBrowser: cfg.evals,
		Seed:            cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	return &fleetWorld{w: w}, nil
}

// fleetPath selects which verdict source a fleet run installs.
type fleetPath int

const (
	pathShards fleetPath = iota // per-issuer ribbon cascade shards
	pathRibbon                  // monolithic ribbon cascade
	pathCRLSet
	pathBloom
	pathCache // no local source: shared cache, then network
)

type fleetOutcome struct {
	verdicts         int64
	netRequests      int64
	cascadeHits      int64
	digest           uint64
	elapsed          time.Duration
	allocsPerVerdict float64
	cacheHitRatio    float64
	dedupeJoins      int64
}

// run executes every browser's plan once. cache, when non-nil, is the
// store pathCache shares between runs.
func (f *fleetWorld) run(ln *lane, path fleetPath, workers int, lat *latency, cache *browser.Cache) (fleetOutcome, error) {
	opt := fleet.RunOptions{Workers: workers}
	if lat != nil {
		opt.Latency = lat.shards
	}
	switch path {
	case pathShards:
		opt.CascadeShards = true
	case pathRibbon:
		opt.CascadeRibbon = true
	case pathCRLSet:
		opt.CRLSet = true
	case pathBloom:
		opt.Bloom = true
	case pathCache:
		opt.Store = cache
	}
	ln.begin("fleet.World.Run")
	r, err := f.w.Run(opt)
	ln.end()
	if err != nil {
		return fleetOutcome{}, err
	}
	return fleetOutcome{
		verdicts:         int64(r.Verdicts),
		netRequests:      r.NetRequests,
		cascadeHits:      int64(r.FastPath.CascadeHits),
		digest:           r.Digest,
		elapsed:          r.Elapsed,
		allocsPerVerdict: r.AllocsPerVerdict,
		cacheHitRatio:    r.Cache.HitRatio(),
		dedupeJoins:      r.Cache.DedupeJoins,
	}, nil
}

// offlineProbes measures the other local verdict sources and the filter
// probes under them.
func (f *fleetWorld) offlineProbes(ln *lane, workers int) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, p := range []struct {
		name string
		path fleetPath
	}{
		{"browser.fastpath_shards_ns", pathShards},
		{"browser.fastpath_ribbon_ns", pathRibbon},
		{"browser.fastpath_crlset_ns", pathCRLSet},
		{"browser.fastpath_bloom_ns", pathBloom},
	} {
		lat := newLatency(workers)
		out, err := f.run(ln, p.path, workers, lat, nil)
		if err != nil {
			return nil, err
		}
		m[p.name] = lat.quantileUS(0.5) * 1e3
		if p.path == pathShards {
			m["browser.offline_allocs_per_verdict"] = out.allocsPerVerdict
			m["fleet.net_requests"] = float64(out.netRequests)
		}
	}
	one, err := f.run(ln, pathShards, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	all, err := f.run(ln, pathShards, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	m["fleet.speedup_vs_1worker"] = one.elapsed.Seconds() / all.elapsed.Seconds()

	// Direct filter probes, one per leaf.
	parent := cascade.Parent(x509x.SPKIHash(f.w.CA.Certificate().RawSPKI))
	keys := make([][]byte, len(f.w.Records))
	var revoked [][]byte
	for i, rec := range f.w.Records {
		keys[i] = cascade.AppendKey(nil, parent, rec.Serial.Bytes())
		if f.w.Revoked[i] {
			revoked = append(revoked, keys[i])
		}
	}
	const passes = 64
	hits := 0
	ln.begin("cascade.ShardSet.Revoked")
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			if f.w.Shards.Revoked(k) {
				hits++
			}
		}
	}
	m["cascade.probe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(passes*len(keys))
	ln.end()
	if hits != passes*len(revoked) {
		return nil, fmt.Errorf("shard set flags %d of %d revoked leaves", hits/passes, len(revoked))
	}
	rib, _, err := ribbon.Build(0, revoked, 7)
	if err != nil {
		return nil, err
	}
	hits = 0
	ln.begin("ribbon.Filter.Contains")
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			if rib.Contains(0, k) {
				hits++
			}
		}
	}
	m["ribbon.probe_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(passes*len(keys))
	ln.end()
	if hits < passes*len(revoked) {
		return nil, fmt.Errorf("ribbon filter has false negatives")
	}
	return m, nil
}

// heartbleedProbes measures, on a fleet world of the scenario's size,
// the layers the scenario's phases run through.
func heartbleedProbes(ln *lane, cfg heartbleedConfig) (map[string]float64, error) {
	m := make(map[string]float64)
	t0 := time.Now()
	f, err := newFleetWorld(ln, fleetConfig{browsers: cfg.clients, certs: cfg.certs, evals: cfg.evals, seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	m["fleet.new_s"] = time.Since(t0).Seconds()

	cache := browser.NewCache()
	cold, err := f.run(ln, pathCache, cfg.workers, nil, cache)
	if err != nil {
		return nil, err
	}
	warm, err := f.run(ln, pathCache, cfg.workers, nil, cache)
	if err != nil {
		return nil, err
	}
	m["browser.dedupe_joins"] = float64(cold.dedupeJoins)
	m["browser.cache_hit_ratio"] = warm.cacheHitRatio
	m["browser.warm_allocs_per_verdict"] = warm.allocsPerVerdict
	m["fleet.warm_verdicts_per_s"] = float64(warm.verdicts) / warm.elapsed.Seconds()
	m["hist.record_ns"] = histRecordNS(ln, 1<<22)

	// The cold verdict the brownout phase pays: a CRL-only chain, no
	// cache, so every check downloads, parses and verifies a CRL.
	var crlOnly []*x509x.Certificate
	var withOCSP *x509x.Certificate
	for _, chain := range f.w.Chains {
		if len(chain[0].OCSPServers) == 0 && crlOnly == nil {
			crlOnly = chain
		}
		if len(chain[0].OCSPServers) > 0 && withOCSP == nil {
			withOCSP = chain[0]
		}
	}
	if crlOnly == nil || withOCSP == nil {
		return nil, fmt.Errorf("fleet world lacks a CRL-only or an OCSP leaf")
	}
	client := &browser.Client{Profile: browser.Hardened(), HTTP: f.w.Net.Client(), Now: f.w.Clock.Now}
	const colds = 512
	ln.begin("browser.Client.Evaluate")
	t0 = time.Now()
	for i := 0; i < colds; i++ {
		if _, err := client.Evaluate(crlOnly, nil); err != nil {
			ln.end()
			return nil, err
		}
	}
	m["browser.cold_verdict_us"] = time.Since(t0).Seconds() * 1e6 / colds
	ln.end()

	issuer := f.w.CA.Certificate()
	id := ocsp.NewCertID(issuer, withOCSP.SerialNumber)
	resp, err := (&ocsp.Client{HTTP: f.w.Net.Client()}).Fetch(withOCSP.OCSPServers[0], &ocsp.Request{IDs: []ocsp.CertID{id}})
	if err != nil {
		return nil, err
	}
	ln.begin("ocsp.ParseResponse")
	t0 = time.Now()
	for i := 0; i < colds; i++ {
		parsed, err := ocsp.ParseResponse(resp.Raw)
		if err == nil {
			err = parsed.VerifySignatureFrom(issuer)
		}
		if err != nil {
			ln.end()
			return nil, err
		}
	}
	m["ocsp.parse_verify_us"] = time.Since(t0).Seconds() * 1e6 / colds
	ln.end()
	return m, nil
}
