package workload

import (
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/crlset"
	"repro/internal/simtime"
)

// RevokedFractions is the Figure 2 data: per observation instant, the
// fraction of fresh and alive certificates that have been revoked, for the
// whole population and for EV only.
type RevokedFractions struct {
	Times    []time.Time
	FreshAll []float64
	FreshEV  []float64
	AliveAll []float64
	AliveEV  []float64
}

// CertStatesByCorpusID maps dense corpus IDs back to simulation state:
// slot i holds the CertState whose record got corpus ID i, nil when the
// observed certificate has no simulation state.
func (w *World) CertStatesByCorpusID() []*CertState {
	out := make([]*CertState, w.Corpus.Size())
	for _, cs := range w.Certs {
		if id, ok := w.Corpus.IDOf(cs.Rec); ok {
			out[id] = cs
		}
	}
	return out
}

// Diff-array slots for RevokedFractionSeries' single-pass fold.
const (
	dFresh = iota
	dFreshRev
	dFreshEV
	dFreshEVRev
	dAlive
	dAliveRev
	dAliveEV
	dAliveEVRev
	dCount
)

// RevokedFractionSeries evaluates the Figure 2 fractions at every scan in
// the corpus. The population is the observed Leaf Set — certificates seen
// in at least one scan — exactly as the paper defines it (§3.3). Rather
// than re-walking every certificate per scan, a single streaming pass
// turns each certificate's fresh/alive/revoked scan ranges into diff-array
// increments; prefix sums then yield the exact per-scan integer counts the
// nested loop used to produce.
func (w *World) RevokedFractionSeries() RevokedFractions {
	out := RevokedFractions{}
	scans := w.Corpus.Scans()
	n := len(scans)
	if n == 0 {
		return out
	}
	nanos := make([]int64, n)
	for i, t := range scans {
		nanos[i] = t.UnixNano()
	}
	states := w.CertStatesByCorpusID()
	diff := make([][]int, dCount)
	for i := range diff {
		diff[i] = make([]int, n+1)
	}
	add := func(d, lo, hi int) {
		if lo <= hi {
			diff[d][lo]++
			diff[d][hi+1]--
		}
	}
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		nb, na := ct.NotBefore().UnixNano(), ct.NotAfter().UnixNano()
		// Scan-index windows: fresh is [first scan >= NotBefore, last
		// scan <= NotAfter]; alive is [birth, death]; revoked-by holds
		// from the first scan >= RevokedAt onward.
		freshLo := sort.Search(n, func(i int) bool { return nanos[i] >= nb })
		freshHi := sort.Search(n, func(i int) bool { return nanos[i] > na }) - 1
		birth, death := ct.BirthScan(), ct.DeathScan()
		revLo := n
		if cs := states[ct.ID()]; cs != nil && cs.Revoked {
			ra := cs.RevokedAt.UnixNano()
			revLo = sort.Search(n, func(i int) bool { return nanos[i] >= ra })
		}
		ev := ct.EV()
		add(dFresh, freshLo, freshHi)
		add(dFreshRev, max(freshLo, revLo), freshHi)
		add(dAlive, birth, death)
		add(dAliveRev, max(birth, revLo), death)
		if ev {
			add(dFreshEV, freshLo, freshHi)
			add(dFreshEVRev, max(freshLo, revLo), freshHi)
			add(dAliveEV, birth, death)
			add(dAliveEVRev, max(birth, revLo), death)
		}
		return true
	})
	run := make([]int, dCount)
	for i := 0; i < n; i++ {
		for d := 0; d < dCount; d++ {
			run[d] += diff[d][i]
		}
		out.Times = append(out.Times, scans[i])
		out.FreshAll = append(out.FreshAll, frac(run[dFreshRev], run[dFresh]))
		out.FreshEV = append(out.FreshEV, frac(run[dFreshEVRev], run[dFreshEV]))
		out.AliveAll = append(out.AliveAll, frac(run[dAliveRev], run[dAlive]))
		out.AliveEV = append(out.AliveEV, frac(run[dAliveEVRev], run[dAliveEV]))
	}
	return out
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// At returns the series values at the observation closest to (at or
// before) t; ok is false before the first observation.
func (rf *RevokedFractions) At(t time.Time) (freshAll, aliveAll float64, ok bool) {
	last := -1
	for i, ti := range rf.Times {
		if ti.After(t) {
			break
		}
		last = i
	}
	if last < 0 {
		return 0, 0, false
	}
	return rf.FreshAll[last], rf.AliveAll[last], true
}

// ShardStat describes one CRL at the end of the study.
type ShardStat struct {
	CAName        string
	URL           string
	Entries       int
	SizeBytes     int
	CertsPointing int
}

// CRLStats builds every CA's CRLs at the current clock and reports their
// exact DER sizes and per-certificate weights — the inputs to Figures 5
// and 6 and Table 1.
func (w *World) CRLStats() ([]ShardStat, error) {
	pointing := make(map[string]int)
	for _, cs := range w.Certs {
		if cs.Rec.HasCRLDP {
			pointing[cs.Rec.CRLURL]++
		}
	}
	var stats []ShardStat
	for _, authority := range w.Authorities {
		now := w.Clock.Now()
		for shard := 0; shard < authority.Profile.CRLShards; shard++ {
			raw, err := authority.CA.CRLBytes(shard)
			if err != nil {
				return nil, err
			}
			url := authority.CA.CRLURL(shard)
			stats = append(stats, ShardStat{
				CAName:        authority.Profile.Name,
				URL:           url,
				Entries:       len(authority.CA.CRLEntries(shard, now)),
				SizeBytes:     len(raw),
				CertsPointing: pointing[url],
			})
		}
	}
	return stats, nil
}

// CAStat is one Table 1 row.
type CAStat struct {
	Name         string
	CRLs         int
	TotalCerts   int
	RevokedCerts int
	// AvgCRLBytesPerCert is the mean, over this CA's certificates, of
	// the size of the CRL the certificate points at.
	AvgCRLBytesPerCert float64
}

// Table1From aggregates precomputed shard statistics into Table 1 rows,
// letting callers that already hold CRLStats output avoid rebuilding
// every CRL.
func (w *World) Table1From(stats []ShardStat) []CAStat {
	byURL := make(map[string]ShardStat, len(stats))
	for _, s := range stats {
		byURL[s.URL] = s
	}
	var out []CAStat
	for _, authority := range w.Authorities {
		row := CAStat{
			Name:         authority.Profile.Name,
			CRLs:         authority.Profile.CRLShards,
			TotalCerts:   authority.CA.Issued(),
			RevokedCerts: len(authority.CA.Revocations()),
		}
		var weighted float64
		var n int
		for shard := 0; shard < authority.Profile.CRLShards; shard++ {
			s := byURL[authority.CA.CRLURL(shard)]
			weighted += float64(s.SizeBytes) * float64(s.CertsPointing)
			n += s.CertsPointing
		}
		if n > 0 {
			row.AvgCRLBytesPerCert = weighted / float64(n)
		}
		out = append(out, row)
	}
	return out
}

// AdoptionPoint is one Figure 4 sample: of certificates issued in Month,
// the fraction carrying CRL and OCSP pointers.
type AdoptionPoint struct {
	Month    string
	N        int
	CRLFrac  float64
	OCSPFrac float64
}

// AdoptionByMonth computes the Figure 4 series over web certificates.
func (w *World) AdoptionByMonth() []AdoptionPoint {
	type agg struct{ n, crl, ocsp int }
	byMonth := make(map[string]*agg)
	for _, cs := range w.Certs {
		if !cs.Authority.Profile.WebCA() {
			continue
		}
		key := simtime.MonthKey(cs.Rec.NotBefore)
		a := byMonth[key]
		if a == nil {
			a = &agg{}
			byMonth[key] = a
		}
		a.n++
		if cs.Rec.HasCRLDP {
			a.crl++
		}
		if cs.Rec.HasOCSP {
			a.ocsp++
		}
	}
	var out []AdoptionPoint
	for _, m := range simtime.Months(w.Cfg.HistoricalFrom, w.Cfg.End) {
		a := byMonth[m]
		if a == nil || a.n == 0 {
			continue
		}
		out = append(out, AdoptionPoint{
			Month:    m,
			N:        a.n,
			CRLFrac:  float64(a.crl) / float64(a.n),
			OCSPFrac: float64(a.ocsp) / float64(a.n),
		})
	}
	return out
}

// StaplingStats is the §4.3 deployment snapshot, computed from the final
// scan.
type StaplingStats struct {
	Servers         int
	ServersStapling int
	Certs           int
	CertsAtLeastOne int
	CertsAll        int
	EVCerts         int
	EVAtLeastOne    int
	EVAll           int
}

// StaplingDeployment aggregates the last scan's staple observations in
// one pass over the columns: a certificate belongs to the latest scan
// exactly when its death index is the final scan, and the final
// sighting's host counts are kept as columns, so no history
// materialization is needed.
func (w *World) StaplingDeployment() StaplingStats {
	var st StaplingStats
	scans := w.Corpus.Scans()
	if len(scans) == 0 {
		return st
	}
	lastIdx := len(scans) - 1
	last := scans[lastIdx]
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		if ct.DeathScan() != lastIdx || !ct.FreshAt(last) {
			return true // §4.3 counts fresh certificates in the latest scan
		}
		hosts, stapled := ct.LastHosts(), ct.LastStapledHosts()
		st.Servers += hosts
		st.ServersStapling += stapled
		st.Certs++
		if stapled > 0 {
			st.CertsAtLeastOne++
		}
		if stapled == hosts && hosts > 0 {
			st.CertsAll++
		}
		if ct.EV() {
			st.EVCerts++
			if stapled > 0 {
				st.EVAtLeastOne++
			}
			if stapled == hosts && hosts > 0 {
				st.EVAll++
			}
		}
		return true
	})
	return st
}

// StaplingObservation reproduces Figure 3: sample hosts, connect
// `requests` times to each, and report — for each request count — the
// fraction of eventual staplers already observed. The first element is
// what a single-scan measurement would see. The repeated connections warm
// the sampled hosts' staple caches; each cache is put back as it was when
// the observation ends, so a second observation of the same world starts
// from the same hosts and not from ones that all staple at once.
func (w *World) StaplingObservation(sample, requests int) []float64 {
	var hosts []int
	for i, h := range w.Hosts {
		if h.Record() != nil && h.SupportsStapling {
			hosts = append(hosts, i)
		}
	}
	if sample > 0 && sample < len(hosts) {
		w.rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		hosts = hosts[:sample]
	}
	if len(hosts) == 0 {
		return nil
	}
	cacheBefore := make([]time.Time, len(hosts))
	for i, hi := range hosts {
		cacheBefore[i] = w.Hosts[hi].StapleFreshUntil()
	}
	observed := make([]bool, len(hosts))
	counts := make([]int, requests)
	seen := 0
	for r := 0; r < requests; r++ {
		for i, hi := range hosts {
			if observed[i] {
				continue
			}
			if w.Hosts[hi].Handshake().StaplePresented {
				observed[i] = true
				seen++
			}
		}
		counts[r] = seen
	}
	for i, hi := range hosts {
		w.Hosts[hi].SetStapleFreshUntil(cacheBefore[i])
	}
	out := make([]float64, requests)
	for r := range counts {
		out[r] = float64(counts[r]) / float64(len(hosts))
	}
	return out
}

// VulnWindows is the Figure 10 data.
type VulnWindows struct {
	// DaysToAppear: per covered revocation, days from revocation until
	// it first appeared in a CRLSet.
	DaysToAppear []float64
	// RemovalToExpiry: per evicted revocation, days between its CRLSet
	// removal and the certificate's expiry.
	RemovalToExpiry []float64
}

// VulnerabilityWindows looks every revoked certificate up in the CRLSet
// timeline's lifetimes.
func (w *World) VulnerabilityWindows() VulnWindows {
	var out VulnWindows
	lifetimes := w.Timeline.Lifetimes()
	for _, cs := range w.Certs {
		if !cs.Revoked {
			continue
		}
		life, ok := lifetimes.Lookup(cs.Authority.Parent, cs.Rec.Serial)
		if !ok {
			continue
		}
		days := life.First.Sub(cs.RevokedAt).Hours() / 24
		if days < 0 {
			days = 0
		}
		out.DaysToAppear = append(out.DaysToAppear, days)
		if !life.Removed.IsZero() {
			if gap := cs.Rec.NotAfter.Sub(life.Removed).Hours() / 24; gap > 0 {
				out.RemovalToExpiry = append(out.RemovalToExpiry, gap)
			}
		}
	}
	return out
}

// CoverageNow analyzes the latest CRLSet against the complete CRL
// universe (public and private).
func (w *World) CoverageNow() crlset.Coverage {
	if w.lastSet == nil {
		return crlset.Coverage{}
	}
	return crlset.AnalyzeCoverage(w.lastSet, w.Sources(w.Clock.Now()))
}

// AlexaCoverage reports CRLSet coverage restricted to popular sites
// (§7.2: 3.9% of Alexa-1M revocations, 10.4% of top-1k).
func (w *World) AlexaCoverage() (top1M, top1MCovered, top1k, top1kCovered int) {
	if w.lastSet == nil {
		return 0, 0, 0, 0
	}
	for _, cs := range w.Certs {
		if !cs.Revoked || !cs.Authority.Profile.WebCA() {
			continue
		}
		covered := w.lastSet.Covers(cs.Authority.Parent, cs.Rec.Serial)
		if cs.Popular {
			top1M++
			if covered {
				top1MCovered++
			}
		}
		if cs.PopularTop {
			top1k++
			if covered {
				top1kCovered++
			}
		}
	}
	return
}

// RevocationReasons tallies reason codes over all revocations (§4.2: the
// majority carry no reason code).
func (w *World) RevocationReasons() map[string]int {
	out := make(map[string]int)
	for _, authority := range w.Authorities {
		for _, rev := range authority.CA.Revocations() {
			out[rev.Reason.String()]++
		}
	}
	return out
}

// LeafSetSummary reports the §3 dataset shape: observed certificates,
// how many carry CRL/OCSP/no pointers, and how many were advertised in
// the latest scan, plus the Intermediate Set's pointer profile.
type LeafSetSummary struct {
	Observed         int
	WithCRL          int
	WithOCSP         int
	WithNeither      int
	AdvertisedLatest int

	Intermediates           int
	IntermediateWithCRL     int
	IntermediateWithOCSP    int
	IntermediateWithNeither int
}

// Summary computes the dataset overview as a single streaming fold.
func (w *World) Summary() LeafSetSummary {
	var s LeafSetSummary
	lastIdx := w.Corpus.NumScans() - 1
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		s.Observed++
		hasCRL, hasOCSP := ct.HasCRLDP(), ct.HasOCSP()
		if hasCRL {
			s.WithCRL++
		}
		if hasOCSP {
			s.WithOCSP++
		}
		if !hasCRL && !hasOCSP {
			s.WithNeither++
		}
		if lastIdx >= 0 && ct.DeathScan() == lastIdx {
			s.AdvertisedLatest++
		}
		return true
	})
	for _, rec := range w.Intermediates {
		s.Intermediates++
		if rec.HasCRLDP {
			s.IntermediateWithCRL++
		}
		if rec.HasOCSP {
			s.IntermediateWithOCSP++
		}
		if !rec.HasCRLDP && !rec.HasOCSP {
			s.IntermediateWithNeither++
		}
	}
	return s
}
