package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ca"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/host"
	"repro/internal/revdb"
	"repro/internal/revdb/segdb"
	"repro/internal/simnet"
	"repro/internal/simtime"
)

// Config parameterizes the simulated ecosystem.
type Config struct {
	// Scale multiplies every full-scale population count; 0.01 runs the
	// study at 1/100 of internet scale.
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// CAs is the authority population; DefaultCAs() when nil.
	CAs []CAProfile
	// Start and End bound the simulation; they default to the first
	// CRLSet snapshot date (July 18, 2013) and the end of the crawl
	// (March 31, 2015).
	Start, End time.Time
	// HistoricalFrom is the first month of backfilled issuance
	// (January 2011, for the Figure 4 adoption curves).
	HistoricalFrom time.Time
	// Parallelism bounds the worker pools for certificate issuance and
	// the daily CRL crawl. 0 means runtime.NumCPU(); 1 forces the serial
	// path. The built world is byte-for-byte identical at any setting:
	// every random decision is drawn before work fans out.
	Parallelism int
	// Dir puts the world's revocation store on disk. Empty keeps it in
	// memory (World.RevDB is revdb.New()). Set, each world built from
	// the Config claims a fresh subdirectory of Dir (experiment runners
	// build several) holding a segdb store, and the data stays after
	// Close. The corpus is in memory either way.
	Dir string

	// SteadyRevPerYear is the steady-state fraction of advertised fresh
	// certificates revoked per year (the >1% pre-Heartbleed baseline).
	SteadyRevPerYear float64
	// HeartbleedAt and HeartbleedMeanDelay shape the mass-revocation
	// event: exposed certificates revoke with an exponential delay after
	// disclosure.
	HeartbleedAt        time.Time
	HeartbleedMeanDelay time.Duration
	// KeepServingRevokedProb is the chance an administrator revokes but
	// never reconfigures their servers — producing the revoked-but-alive
	// certificates of Figure 2's bottom panel.
	KeepServingRevokedProb float64
	// RenewProb is the chance an expiring certificate is replaced.
	RenewProb float64
	// ServeExpiredProb is the chance a host keeps serving an expired
	// certificate (Figure 1's atypical timeline).
	ServeExpiredProb float64

	// StaplingHostProb is the chance a host supports OCSP stapling
	// (§4.3 measures 2.6% of servers presenting staples).
	StaplingHostProb float64
	// WarmStapleProb is the chance a stapling host's cache is primed
	// when first scanned (Figure 3's ~18% single-request undercount).
	WarmStapleProb float64

	// CRLSetFullScaleMaxEntries is Google's oversized-CRL threshold at
	// full scale; the generator applies it scaled.
	CRLSetFullScaleMaxEntries int
	// CRLSetOutageFrom/To freeze CRLSet generation (the Nov-Dec 2014 gap
	// in Figure 9).
	CRLSetOutageFrom, CRLSetOutageTo time.Time
	// CRLSetParentRemovedCA and CRLSetParentRemovalAt drop one CA from
	// the generator's view mid-study (the May 2014 Verisign-EV parent
	// removal that shrinks Figure 8).
	CRLSetParentRemovedCA string
	CRLSetParentRemovalAt time.Time
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Scale:                     0.01,
		Seed:                      1,
		Start:                     simtime.CRLSetStart,
		End:                       simtime.CrawlEnd,
		HistoricalFrom:            simtime.Date(2011, time.January, 1),
		SteadyRevPerYear:          0.022,
		HeartbleedAt:              simtime.Heartbleed,
		HeartbleedMeanDelay:       12 * 24 * time.Hour,
		KeepServingRevokedProb:    0.10,
		RenewProb:                 0.85,
		ServeExpiredProb:          0.04,
		StaplingHostProb:          0.026,
		WarmStapleProb:            0.82,
		CRLSetFullScaleMaxEntries: 10000,
		CRLSetOutageFrom:          simtime.Date(2014, time.November, 22),
		CRLSetOutageTo:            simtime.Date(2014, time.December, 6),
		CRLSetParentRemovedCA:     "Verisign",
		CRLSetParentRemovalAt:     simtime.Date(2014, time.May, 20),
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.CAs == nil {
		c.CAs = DefaultCAs()
	}
	if c.Start.IsZero() {
		c.Start = d.Start
	}
	if c.End.IsZero() {
		c.End = d.End
	}
	if c.HistoricalFrom.IsZero() {
		c.HistoricalFrom = d.HistoricalFrom
	}
	if c.SteadyRevPerYear == 0 {
		c.SteadyRevPerYear = d.SteadyRevPerYear
	}
	if c.HeartbleedAt.IsZero() {
		c.HeartbleedAt = d.HeartbleedAt
	}
	if c.HeartbleedMeanDelay == 0 {
		c.HeartbleedMeanDelay = d.HeartbleedMeanDelay
	}
	if c.KeepServingRevokedProb == 0 {
		c.KeepServingRevokedProb = d.KeepServingRevokedProb
	}
	if c.RenewProb == 0 {
		c.RenewProb = d.RenewProb
	}
	if c.ServeExpiredProb == 0 {
		c.ServeExpiredProb = d.ServeExpiredProb
	}
	if c.StaplingHostProb == 0 {
		c.StaplingHostProb = d.StaplingHostProb
	}
	if c.WarmStapleProb == 0 {
		c.WarmStapleProb = d.WarmStapleProb
	}
	if c.CRLSetFullScaleMaxEntries == 0 {
		c.CRLSetFullScaleMaxEntries = d.CRLSetFullScaleMaxEntries
	}
	if c.CRLSetOutageFrom.IsZero() {
		c.CRLSetOutageFrom = d.CRLSetOutageFrom
		c.CRLSetOutageTo = d.CRLSetOutageTo
	}
	if c.CRLSetParentRemovedCA == "" {
		c.CRLSetParentRemovedCA = d.CRLSetParentRemovedCA
	}
	if c.CRLSetParentRemovalAt.IsZero() {
		c.CRLSetParentRemovalAt = d.CRLSetParentRemovalAt
	}
}

// Authority couples a CA with its profile and CRLSet parent hash.
type Authority struct {
	Profile CAProfile
	CA      *ca.CA
	Parent  crlset.Parent
	// carry accumulates fractional daily issuance volume; steadyCarry
	// does the same for revocations.
	carry       float64
	steadyCarry float64
	// revBudget is the remaining scaled revocation count (Table 1).
	revBudget int
	// pool holds this CA's unrevoked certificates, fresh or soon to be
	// checked lazily, for revocation sampling.
	pool []*CertState
}

// poolRemove drops the certificate from the authority's sampling pool.
func (a *Authority) poolRemove(cs *CertState) {
	i := cs.poolIdx
	if i < 0 {
		return
	}
	last := len(a.pool) - 1
	a.pool[i] = a.pool[last]
	a.pool[i].poolIdx = i
	a.pool = a.pool[:last]
	cs.poolIdx = -1
}

// poolAdd inserts the certificate into the sampling pool.
func (a *Authority) poolAdd(cs *CertState) {
	cs.poolIdx = len(a.pool)
	a.pool = append(a.pool, cs)
}

// CertState is the simulation's view of one certificate.
type CertState struct {
	Rec       *ca.Record
	Authority *Authority
	Hosts     []*host.SimHost
	Revoked   bool
	RevokedAt time.Time
	Reason    crl.Reason
	// Advertised reports whether hosts still serve the certificate.
	Advertised bool
	// hbDue, when non-zero, schedules this certificate's Heartbleed
	// revocation.
	hbDue time.Time
	// activeIdx is the index in World.active, -1 when inactive;
	// poolIdx is the index in the authority's revocation-sampling pool.
	activeIdx int
	poolIdx   int
	// Popular marks Alexa-top-1M sites; PopularTop marks the top 1,000.
	Popular    bool
	PopularTop bool
}

// World is the running ecosystem.
type World struct {
	Cfg   Config
	Clock *simtime.Clock
	Net   *simnet.Network

	Authorities []*Authority
	Certs       []*CertState
	Hosts       []*host.SimHost
	// Intermediates is the observed Intermediate Set (§3.2): CA
	// certificates discovered in chains, with their own — markedly
	// worse — revocation-pointer profile (48.5% OCSP vs 95% for
	// leaves, and 0.92% with no revocation mechanism at all).
	Intermediates []*ca.Record

	Corpus  *corpus.Corpus
	Archive *crawler.Archive
	// CrawlStats is the daily crawl's accounting over the whole study:
	// fetches, retries and failures by class. Run fills it in.
	CrawlStats crawler.FetchStats
	// RevDB is the revocation database, fed by the daily crawl. The
	// backend is chosen by Config.Dir: in-memory by default, or the
	// disk-backed segdb store for worlds too large for RAM.
	RevDB    revdb.Store
	Timeline *crlset.Timeline

	rng *rand.Rand
	// active holds advertised, fresh, unrevoked certificates eligible
	// for revocation and expiry processing.
	active []*CertState
	// expiring buckets active certificates by expiry day key.
	expiring map[string][]*CertState
	// crlURLs is the precomputed crawl list.
	crlURLs []string
	// crlsetSeq counts generated CRLSet snapshots.
	crlsetSeq int
	// lastSet is the most recent CRLSet (reused during outages).
	lastSet *crlset.Set
	// srcBuf is the reusable CRLSet-generator input buffer; the generator
	// never retains it past a Generate call.
	srcBuf []crlset.SourceCRL
	// nextAddr allocates simulated host addresses.
	nextAddr uint32
}

func dayKey(t time.Time) string { return t.Format("2006-01-02") }

// Close releases the world's revocation store — a no-op for the
// in-memory one. The world is not usable afterwards.
func (w *World) Close() error { return w.RevDB.Close() }

// openStore opens a world's revocation store: in memory when cfg.Dir is
// empty, else a segdb store in a fresh subdirectory of cfg.Dir.
func openStore(cfg Config) (revdb.Store, error) {
	if cfg.Dir == "" {
		return revdb.New(), nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Dir, "world-")
	if err != nil {
		return nil, err
	}
	store, err := segdb.Open(filepath.Join(dir, "revdb"), nil)
	if err != nil {
		return nil, fmt.Errorf("open revocation store: %w", err)
	}
	return store, nil
}

// NewWorld builds the initial ecosystem (CAs, backfilled certificate
// population, hosts) without running the clock.
func NewWorld(cfg Config) (*World, error) {
	cfg.fillDefaults()
	store, err := openStore(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg:      cfg,
		Clock:    simtime.NewClock(cfg.Start),
		Net:      simnet.New(),
		Corpus:   corpus.New(),
		Archive:  crawler.NewArchive(),
		RevDB:    store,
		Timeline: crlset.NewTimeline(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		expiring: make(map[string][]*CertState),
	}
	for i, profile := range cfg.CAs {
		hostBase := strings.ToLower(profile.Name)
		authority, err := ca.NewRoot(ca.Config{
			Name:         profile.Name,
			NumCRLShards: profile.CRLShards,
			SerialBytes:  profile.SerialBytes,
			ShardSkew:    profile.ShardSkew,
			CRLBaseURL:   fmt.Sprintf("http://crl.%s.test/crl", hostBase),
			OCSPBaseURL:  fmt.Sprintf("http://ocsp.%s.test/ocsp", hostBase),
			IncludeCRLDP: true,
			IncludeOCSP:  true,
			// Real CAs drop expired certificates from CRLs, which
			// both bounds CRL growth and produces Figure 8's decline.
			DropExpiredFromCRL: true,
			// The simulation's crawler does not enforce CRL freshness,
			// so shards whose revocation set is unchanged can serve
			// yesterday's DER instead of re-signing every day.
			ReuseUnchangedCRL: true,
			Clock:             w.Clock.Now,
			Seed:              cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		entry := &Authority{
			Profile:   profile,
			CA:        authority,
			Parent:    crlset.Parent(authority.Certificate().SPKIHash()),
			revBudget: int(float64(profile.RevokedCerts) * cfg.Scale),
		}
		w.Authorities = append(w.Authorities, entry)
		w.Net.Register("crl."+hostBase+".test", authority.Handler())
		w.Net.Register("ocsp."+hostBase+".test", authority.Handler())
		for shard := 0; shard < profile.CRLShards; shard++ {
			w.crlURLs = append(w.crlURLs, authority.CRLURL(shard))
		}
	}
	w.backfill()
	w.backfillIntermediates()
	for _, authority := range w.Authorities {
		w.backfillRevocations(authority)
	}
	return w, nil
}

// backfillIntermediates registers the Intermediate Set: scaled from the
// paper's 1,946 CA certificates, distributed across the web authorities
// proportionally to issuance volume, with §3.2's pointer fractions
// (98.9% CRL, 48.5% OCSP, 0.92% neither).
func (w *World) backfillIntermediates() {
	const fullScaleIntermediates = 1946
	var totalWeb int
	for _, a := range w.Authorities {
		if a.Profile.WebCA() {
			totalWeb += a.Profile.TotalCerts
		}
	}
	target := float64(fullScaleIntermediates) * w.Cfg.Scale
	if target < 4 {
		target = 4
	}
	carry := 0.0
	for _, authority := range w.Authorities {
		if !authority.Profile.WebCA() {
			continue
		}
		carry += target * float64(authority.Profile.TotalCerts) / float64(totalWeb)
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			omitCRL, omitOCSP := false, false
			switch r := w.rng.Float64(); {
			case r < 0.0092:
				omitCRL, omitOCSP = true, true // can never be revoked
			case r < 0.011:
				omitCRL = true
			}
			if !omitOCSP && w.rng.Float64() > 0.485 {
				omitOCSP = true
			}
			rec := authority.CA.IssueRecord(ca.IssueOptions{
				CommonName: fmt.Sprintf("%s Intermediate %d", authority.Profile.Name, i),
				NotBefore:  w.Cfg.Start.AddDate(-5, 0, 0),
				NotAfter:   w.Cfg.Start.AddDate(10, 0, 0),
				OmitCRLDP:  omitCRL,
				OmitOCSP:   omitOCSP,
			})
			w.Intermediates = append(w.Intermediates, rec)
		}
	}
}

// backfillRevocations seeds each CA's CRLs with the revocations that
// happened before the simulation starts, so day-one CRL sizes already
// reflect Table 1.
func (w *World) backfillRevocations(authority *Authority) {
	n := int(float64(authority.revBudget) * authority.Profile.PreStudyRevokedFrac)
	attempts := 0
	for done := 0; done < n && attempts < n*20 && len(authority.pool) > 0; attempts++ {
		cs := authority.pool[w.rng.Intn(len(authority.pool))]
		if !cs.Rec.NotBefore.Before(w.Cfg.Start) {
			continue
		}
		// Revocation moment uniform over the certificate's pre-study
		// validity.
		window := w.Cfg.Start.Sub(cs.Rec.NotBefore)
		at := cs.Rec.NotBefore.Add(time.Duration(w.rng.Float64() * float64(window)))
		w.revokeCert(cs, at, w.steadyReason())
		done++
	}
}

// monthWeights distributes a CA's total volume across issuance months with
// mild growth.
func (w *World) monthWeights() []float64 {
	months := simtime.Months(w.Cfg.HistoricalFrom, w.Cfg.End)
	weights := make([]float64, len(months))
	var total float64
	growth := 1.0
	for i := range weights {
		weights[i] = growth
		total += growth
		growth *= 1.02
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// backfill issues the pre-simulation population month by month: plans
// are drawn serially (preserving the RNG stream), executed on the worker
// pool, and merged back in plan order.
func (w *World) backfill() {
	months := simtime.Months(w.Cfg.HistoricalFrom, w.Cfg.End)
	weights := w.monthWeights()
	var plans []*certPlan
	for _, authority := range w.Authorities {
		totalScaled := float64(authority.Profile.TotalCerts) * w.Cfg.Scale
		carry := 0.0
		for mi, monthKey := range months {
			monthStart, err := time.Parse("2006-01", monthKey)
			if err != nil {
				panic("workload: bad month key " + monthKey)
			}
			if !monthStart.Before(w.Cfg.Start) {
				break // issued live during the run instead
			}
			carry += totalScaled * weights[mi]
			n := int(carry)
			carry -= float64(n)
			for i := 0; i < n; i++ {
				day := w.rng.Intn(28)
				issued := monthStart.AddDate(0, 0, day)
				plans = append(plans, w.planCert(authority, issued, len(w.Certs)+len(plans)))
			}
		}
	}
	w.executePlans(plans)
	w.integratePlans(plans)
}

// sampleValidity returns a certificate validity period for the authority.
func (w *World) sampleValidity(authority *Authority) time.Duration {
	if authority.Profile.LongLivedCerts {
		return time.Duration(4+w.rng.Intn(3)) * 365 * 24 * time.Hour
	}
	r := w.rng.Float64()
	switch {
	case r < 0.65:
		return 365 * 24 * time.Hour
	case r < 0.90:
		return 2 * 365 * 24 * time.Hour
	default:
		return 3 * 365 * 24 * time.Hour
	}
}

func (w *World) sampleHostCount() int {
	r := w.rng.Float64()
	switch {
	case r < 0.75:
		return 1
	case r < 0.90:
		return 2
	case r < 0.97:
		return 3 + w.rng.Intn(3)
	default:
		return 6 + w.rng.Intn(45)
	}
}

// retire stops all hosts from serving the certificate.
func (w *World) retire(cs *CertState) {
	for _, h := range cs.Hosts {
		h.SetRecord(nil)
	}
	cs.Advertised = false
	w.deactivate(cs)
}

// replace issues a renewal on the same hosts.
func (w *World) replace(cs *CertState, at time.Time) *CertState {
	repl := w.issueCertOnHosts(cs.Authority, at, cs.Hosts)
	cs.Advertised = false
	w.deactivate(cs)
	return repl
}

// issueCertOnHosts issues a new certificate served by existing hosts.
func (w *World) issueCertOnHosts(authority *Authority, issued time.Time, hosts []*host.SimHost) *CertState {
	profile := &authority.Profile
	notAfter := issued.Add(w.sampleValidity(authority))
	rec := authority.CA.IssueRecord(ca.IssueOptions{
		CommonName: fmt.Sprintf("site-%d.%s.example", len(w.Certs), strings.ToLower(profile.Name)),
		NotBefore:  issued,
		NotAfter:   notAfter,
		EV:         w.rng.Float64() < profile.EVFraction,
		OmitOCSP:   w.rng.Float64() < 0.03,
	})
	cs := &CertState{
		Rec:        rec,
		Authority:  authority,
		Reason:     crl.ReasonAbsent,
		Hosts:      hosts,
		Advertised: true,
		activeIdx:  -1,
		poolIdx:    -1,
		Popular:    w.rng.Float64() < 0.20,
		PopularTop: w.rng.Float64() < 0.0005,
	}
	for _, h := range hosts {
		h.SetRecord(rec)
	}
	w.Certs = append(w.Certs, cs)
	authority.poolAdd(cs)
	w.activate(cs)
	w.expiring[dayKey(notAfter)] = append(w.expiring[dayKey(notAfter)], cs)
	return cs
}

func (w *World) activate(cs *CertState) {
	if cs.activeIdx >= 0 {
		return
	}
	cs.activeIdx = len(w.active)
	w.active = append(w.active, cs)
}

func (w *World) deactivate(cs *CertState) {
	i := cs.activeIdx
	if i < 0 {
		return
	}
	last := len(w.active) - 1
	w.active[i] = w.active[last]
	w.active[i].activeIdx = i
	w.active = w.active[:last]
	cs.activeIdx = -1
}
