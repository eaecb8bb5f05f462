package workload

import (
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/ocsp"
	"repro/internal/simtime"
)

var (
	worldOnce sync.Once
	world     *World
	worldErr  error
)

// testWorld runs one shared small-scale world (1/500 of internet scale)
// for all workload tests.
func testWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = NewWorld(Config{Scale: 0.002, Seed: 42})
		if worldErr == nil {
			worldErr = world.Run()
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

func TestWorldPopulationShape(t *testing.T) {
	w := testWorld(t)
	if len(w.Authorities) != len(DefaultCAs()) {
		t.Fatalf("authorities = %d", len(w.Authorities))
	}
	if len(w.Certs) < 5000 {
		t.Errorf("certs = %d, expected thousands at scale 0.002", len(w.Certs))
	}
	if len(w.Hosts) < 3000 {
		t.Errorf("hosts = %d", len(w.Hosts))
	}
	if w.Corpus.NumScans() < 70 {
		t.Errorf("scans ingested = %d, want ~74", w.Corpus.NumScans())
	}
	if w.Archive.Len() != 181 {
		t.Errorf("crawl days = %d, want 181", w.Archive.Len())
	}
	if st := w.CrawlStats; st.Successes == 0 || st.GaveUp != 0 {
		t.Errorf("crawl stats: %+v", st)
	}
	if w.Timeline.Len() < 600 {
		t.Errorf("CRLSet snapshots = %d", w.Timeline.Len())
	}
	if w.RevDB.Size() == 0 {
		t.Error("revocation database empty")
	}
}

func TestFigure2Shape(t *testing.T) {
	w := testWorld(t)
	rf := w.RevokedFractionSeries()
	if len(rf.Times) != w.Corpus.NumScans() {
		t.Fatalf("series length %d", len(rf.Times))
	}
	// Before Heartbleed: low but non-zero fresh-revoked fraction (the
	// >1% steady state).
	preFresh, _, ok := rf.At(simtime.Heartbleed.AddDate(0, 0, -7))
	if !ok {
		t.Fatal("no pre-Heartbleed observation")
	}
	if preFresh < 0.002 || preFresh > 0.06 {
		t.Errorf("pre-Heartbleed fresh-revoked = %.4f, want low single digits", preFresh)
	}
	// The Heartbleed spike: the peak fraction lands within months after
	// disclosure and reaches the ballpark of the paper's 8%.
	peak, peakIdx := 0.0, 0
	for i, v := range rf.FreshAll {
		if v > peak {
			peak, peakIdx = v, i
		}
	}
	if peak < 0.06 || peak > 0.20 {
		t.Errorf("peak fresh-revoked = %.4f, want ~0.08-0.10", peak)
	}
	peakDay := rf.Times[peakIdx]
	if peakDay.Before(simtime.Heartbleed) || peakDay.After(simtime.Heartbleed.AddDate(0, 4, 0)) {
		t.Errorf("peak at %v, want shortly after Heartbleed", peakDay)
	}
	if peak < 1.8*preFresh {
		t.Errorf("Heartbleed spike missing: peak %.4f vs baseline %.4f", peak, preFresh)
	}
	// Fresh-revoked stays elevated through the end of the study.
	endFresh := rf.FreshAll[len(rf.FreshAll)-1]
	endAlive := rf.AliveAll[len(rf.AliveAll)-1]
	if endFresh < 0.03 {
		t.Errorf("final fresh-revoked = %.4f, should remain elevated", endFresh)
	}
	// Alive-revoked stays much smaller than fresh-revoked (paper: <1%
	// vs 8%) but non-zero — the revoked-but-still-advertised sites.
	if endAlive <= 0 || endAlive > endFresh/2 {
		t.Errorf("final alive-revoked = %.4f vs fresh %.4f", endAlive, endFresh)
	}
}

func TestTable1Shape(t *testing.T) {
	w := testWorld(t)
	stats, err := w.CRLStats()
	if err != nil {
		t.Fatal(err)
	}
	rows := w.Table1From(stats)
	byName := map[string]CAStat{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	gd := byName["GoDaddy"]
	if gd.CRLs != 322 {
		t.Errorf("GoDaddy CRLs = %d", gd.CRLs)
	}
	// Revocation budgets should be roughly spent: GoDaddy revoked ~
	// 277,500 * 0.002 = 555.
	if gd.RevokedCerts < 300 || gd.RevokedCerts > 800 {
		t.Errorf("GoDaddy revoked = %d, want ~555", gd.RevokedCerts)
	}
	// Ordering of Table 1: GoDaddy has by far the most revocations
	// among the nine named CAs; RapidSSL very few despite volume.
	if gd.RevokedCerts <= byName["RapidSSL"].RevokedCerts {
		t.Error("GoDaddy should out-revoke RapidSSL")
	}
	if byName["RapidSSL"].TotalCerts <= byName["GlobalSign"].TotalCerts {
		t.Error("RapidSSL should out-issue GlobalSign")
	}
	// GlobalSign's huge skewed CRLs should give it a per-certificate
	// CRL size far above RapidSSL's (Table 1: 2050 KB vs 34.5 KB).
	if byName["GlobalSign"].AvgCRLBytesPerCert <= byName["RapidSSL"].AvgCRLBytesPerCert {
		t.Error("GlobalSign per-cert CRL cost should exceed RapidSSL's")
	}
}

func TestCRLSizeDistributions(t *testing.T) {
	w := testWorld(t)
	stats, err := w.CRLStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) < 400 {
		t.Fatalf("CRLs = %d", len(stats))
	}
	// Figure 5: size grows linearly with entries at ~38 B/entry
	// (intercept for the empty-CRL overhead).
	var maxEntries, maxSize int
	for _, s := range stats {
		if s.Entries > maxEntries {
			maxEntries = s.Entries
			maxSize = s.SizeBytes
		}
	}
	if maxEntries < 100 {
		t.Fatalf("largest CRL only %d entries", maxEntries)
	}
	perEntry := float64(maxSize) / float64(maxEntries)
	if perEntry < 25 || perEntry > 60 {
		t.Errorf("bytes/entry = %.1f, want ~38", perEntry)
	}
	// Figure 6: the weighted distribution is much heavier than the raw
	// one — most CRLs are small, but most certificates point at big
	// CRLs.
	var rawTotal, weightedTotal, weightSum float64
	for _, s := range stats {
		rawTotal += float64(s.SizeBytes)
		weightedTotal += float64(s.SizeBytes) * float64(s.CertsPointing)
		weightSum += float64(s.CertsPointing)
	}
	rawMean := rawTotal / float64(len(stats))
	weightedMean := weightedTotal / weightSum
	if weightedMean <= rawMean {
		t.Errorf("weighted mean CRL %.0f B should exceed raw mean %.0f B", weightedMean, rawMean)
	}
	// Apple's CRL dominates the raw maximum.
	var apple ShardStat
	for _, s := range stats {
		if s.CAName == "Apple-WWDR" {
			apple = s
		}
	}
	if apple.Entries < 1000 {
		t.Errorf("Apple CRL entries = %d, want thousands even at small scale", apple.Entries)
	}
}

func TestFigure4AdoptionCurve(t *testing.T) {
	w := testWorld(t)
	points := w.AdoptionByMonth()
	if len(points) < 40 {
		t.Fatalf("months = %d", len(points))
	}
	at := func(month string) AdoptionPoint {
		for _, p := range points {
			if p.Month == month {
				return p
			}
		}
		t.Fatalf("month %s missing", month)
		return AdoptionPoint{}
	}
	// CRL inclusion is near-universal throughout.
	if p := at("2014-06"); p.CRLFrac < 0.98 {
		t.Errorf("2014-06 CRL fraction = %.3f", p.CRLFrac)
	}
	// OCSP adoption jumps when RapidSSL turns it on in July 2012.
	before := at("2012-06").OCSPFrac
	after := at("2012-09").OCSPFrac
	if after-before < 0.05 {
		t.Errorf("RapidSSL OCSP spike missing: %.3f -> %.3f", before, after)
	}
	if p := at("2014-06"); p.OCSPFrac < 0.90 {
		t.Errorf("2014-06 OCSP fraction = %.3f", p.OCSPFrac)
	}
}

func TestStaplingNumbers(t *testing.T) {
	w := testWorld(t)
	st := w.StaplingDeployment()
	if st.Servers == 0 || st.Certs == 0 {
		t.Fatal("empty stapling stats")
	}
	serverFrac := float64(st.ServersStapling) / float64(st.Servers)
	// Paper: 2.60% of servers presented staples.
	if serverFrac < 0.01 || serverFrac > 0.05 {
		t.Errorf("server stapling fraction = %.4f, want ~0.026", serverFrac)
	}
	atLeast := float64(st.CertsAtLeastOne) / float64(st.Certs)
	all := float64(st.CertsAll) / float64(st.Certs)
	if atLeast <= all {
		t.Errorf(">=1 fraction %.4f should exceed all-hosts fraction %.4f", atLeast, all)
	}
	if atLeast < 0.02 || atLeast > 0.12 {
		t.Errorf("certs with >=1 stapler = %.4f, want ~0.05", atLeast)
	}

	// Figure 3: repeated requests observe more stapling support.
	curve := w.StaplingObservation(2000, 10)
	if len(curve) != 10 {
		t.Fatalf("curve = %v", curve)
	}
	if curve[0] < 0.6 || curve[0] > 0.95 {
		t.Errorf("single-request observation = %.3f, want ~0.8", curve[0])
	}
	if curve[9] < curve[0]+0.05 {
		t.Errorf("curve should rise: %.3f -> %.3f", curve[0], curve[9])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Error("observation curve must be monotone")
		}
	}
}

func TestCRLSetDynamics(t *testing.T) {
	w := testWorld(t)
	// Coverage is a small fraction of all revocations (paper: 0.35%).
	cov := w.CoverageNow()
	if cov.TotalRevocations == 0 || cov.CoveredRevocations == 0 {
		t.Fatalf("degenerate coverage %+v", cov)
	}
	f := cov.CoverageFraction()
	if f > 0.05 {
		t.Errorf("CRLSet coverage = %.4f, should be a tiny fraction", f)
	}
	if cov.CoveredCRLs >= cov.TotalCRLs/2 {
		t.Errorf("covered CRLs = %d of %d, should be a small minority", cov.CoveredCRLs, cov.TotalCRLs)
	}

	// Figure 8: entries peak after Heartbleed and decline afterwards.
	counts := w.Timeline.EntryCounts()
	days := w.Timeline.Days()
	peak, peakIdx := 0, 0
	for i, c := range counts {
		if c > peak {
			peak, peakIdx = c, i
		}
	}
	if peak == 0 {
		t.Fatal("CRLSet never had entries")
	}
	peakDay := days[peakIdx]
	if peakDay.Before(simtime.Heartbleed) || peakDay.After(simtime.Heartbleed.AddDate(0, 6, 0)) {
		t.Errorf("CRLSet peak at %v, want within months after Heartbleed", peakDay)
	}
	final := counts[len(counts)-1]
	if final >= peak {
		t.Errorf("CRLSet should shrink from its peak (%d -> %d)", peak, final)
	}

	// Figure 9: no additions during the generator outage.
	adds := w.Timeline.Additions()
	gapStart := w.Cfg.CRLSetOutageFrom
	for i := 1; i < len(days); i++ {
		if !days[i].Before(gapStart) && days[i].Before(w.Cfg.CRLSetOutageTo) {
			if adds[i-1] != 0 {
				t.Errorf("additions during outage on %v: %d", days[i], adds[i-1])
			}
		}
	}

	// Figure 10: most covered revocations appear within a couple of
	// days; some are removed well before expiry.
	vw := w.VulnerabilityWindows()
	if len(vw.DaysToAppear) == 0 {
		t.Fatal("no covered revocations")
	}
	within2 := 0
	for _, d := range vw.DaysToAppear {
		if d <= 2 {
			within2++
		}
	}
	if float64(within2)/float64(len(vw.DaysToAppear)) < 0.5 {
		t.Errorf("only %d/%d revocations appear within two days", within2, len(vw.DaysToAppear))
	}
	if len(vw.RemovalToExpiry) == 0 {
		t.Error("no early removals observed (parent removal should evict entries)")
	}
}

func TestSummaryAndReasons(t *testing.T) {
	w := testWorld(t)
	s := w.Summary()
	if s.Observed == 0 || s.AdvertisedLatest == 0 {
		t.Fatalf("summary %+v", s)
	}
	if frac := float64(s.WithCRL) / float64(s.Observed); frac < 0.97 {
		t.Errorf("CRL pointer fraction = %.4f, want ~0.999", frac)
	}
	if frac := float64(s.WithOCSP) / float64(s.Observed); frac < 0.85 {
		t.Errorf("OCSP pointer fraction = %.4f, want ~0.95", frac)
	}
	if s.WithNeither == 0 {
		t.Error("some certificates should be unrevokable (0.09% in the paper)")
	}
	reasons := w.RevocationReasons()
	if reasons["(absent)"] == 0 {
		t.Error("most revocations should carry no reason code")
	}
	max := ""
	maxN := 0
	for r, n := range reasons {
		if n > maxN {
			max, maxN = r, n
		}
	}
	if max != "(absent)" {
		t.Errorf("dominant reason = %s, want (absent)", max)
	}
}

func TestAlexaCoverage(t *testing.T) {
	w := testWorld(t)
	top1M, covered1M, _, _ := w.AlexaCoverage()
	if top1M == 0 {
		t.Fatal("no popular revocations")
	}
	f := float64(covered1M) / float64(top1M)
	if f > 0.25 {
		t.Errorf("Alexa-1M coverage = %.3f, should be small (paper: 3.9%%)", f)
	}
}

func TestDeterminism(t *testing.T) {
	// Two tiny worlds with the same seed must agree exactly.
	run := func() (int, int, int) {
		w, err := NewWorld(Config{Scale: 0.0005, Seed: 7, Start: simtime.Date(2014, time.March, 1), End: simtime.Date(2014, time.July, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		revs := 0
		for _, a := range w.Authorities {
			revs += len(a.CA.Revocations())
		}
		return len(w.Certs), revs, w.Corpus.Size()
	}
	c1, r1, o1 := run()
	c2, r2, o2 := run()
	if c1 != c2 || r1 != r2 || o1 != o2 {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, r1, o1, c2, r2, o2)
	}
}

func TestIntermediateSet(t *testing.T) {
	w := testWorld(t)
	s := w.Summary()
	if s.Intermediates < 2 {
		t.Fatalf("intermediates = %d", s.Intermediates)
	}
	// §3.2: intermediates have far lower OCSP adoption than leaves.
	interOCSP := float64(s.IntermediateWithOCSP) / float64(s.Intermediates)
	leafOCSP := float64(s.WithOCSP) / float64(s.Observed)
	if interOCSP >= leafOCSP {
		t.Errorf("intermediate OCSP %.2f should be below leaf OCSP %.2f", interOCSP, leafOCSP)
	}
	interCRL := float64(s.IntermediateWithCRL) / float64(s.Intermediates)
	if interCRL < 0.9 {
		t.Errorf("intermediate CRL fraction = %.2f", interCRL)
	}
}

func TestCheckOCSPOnlyCohort(t *testing.T) {
	w := testWorld(t)
	// §3.2: certificates that carry only an OCSP responder are checked by
	// querying it directly, since no CRL can be crawled for them.
	var targets []crawler.OCSPTarget
	now := w.Clock.Now()
	for _, cs := range w.Certs {
		if cs.Rec.HasOCSP && !cs.Rec.HasCRLDP && cs.Rec.FreshAt(now) && cs.Authority.Profile.WebCA() {
			targets = append(targets, crawler.OCSPTarget{
				ResponderURL: cs.Rec.OCSPURL,
				Issuer:       cs.Authority.CA.Certificate(),
				Serial:       cs.Rec.Serial,
			})
		}
	}
	if len(targets) == 0 {
		t.Skip("no OCSP-only certificates at this scale")
	}
	cr := &crawler.Crawler{Client: w.Net.Client(), Now: w.Clock.Now, OCSPBatchSize: 8}
	for i, res := range cr.CheckOCSPOnly(targets) {
		if res.Err != nil {
			t.Errorf("target %d: OCSP-only check errored: %v", i, res.Err)
		} else if st := res.Response.Status; st != ocsp.StatusGood && st != ocsp.StatusRevoked {
			t.Errorf("target %d: responder answered %v for its own certificate", i, st)
		}
	}
}
