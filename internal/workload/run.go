package workload

import (
	"math"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/scan"
	"repro/internal/simtime"
)

// Run drives the world day by day from Start to End: issuance, revocation
// (steady-state plus the Heartbleed event), expiry and renewal, the weekly
// scans into the corpus, the daily CRL crawl into the archive and
// revocation database, and daily CRLSet generation into the timeline.
func (w *World) Run() error {
	scans := simtime.ScanSchedule().Between(w.Cfg.Start, w.Cfg.End)
	scanIdx := 0
	sc := &scan.Scanner{Hosts: w.Hosts}
	cr := &crawler.Crawler{Client: w.Net.Client(), Now: w.Clock.Now, Parallelism: w.parallelism()}

	hbMarked := false

	for day := w.Cfg.Start; !day.After(w.Cfg.End); day = day.AddDate(0, 0, 1) {
		w.Clock.AdvanceTo(day)

		w.issueDaily(day)

		if !hbMarked && !day.Before(w.Cfg.HeartbleedAt) {
			w.markHeartbleed(day)
			hbMarked = true
		}
		w.revokeDaily(day)
		w.expireDaily(day)

		if scanIdx < len(scans) && !day.Before(scans[scanIdx].Truncate(24*time.Hour)) {
			// The scanner sweeps the full (growing) host population.
			sc.Hosts = w.Hosts
			sc.ScanInto(w.Corpus, day)
			scanIdx++
		}
		if !day.Before(simtime.CrawlStart) && !day.After(simtime.CrawlEnd) {
			snap := cr.CrawlCRLs(w.crlURLs)
			w.Archive.Add(snap)
			w.RevDB.IngestSnapshot(snap)
		}
		if !day.Before(simtime.CRLSetStart) {
			w.generateCRLSet(day)
		}
	}
	w.CrawlStats = cr.Stats()
	return nil
}

// issueDaily issues each authority's daily share of new certificates.
func (w *World) issueDaily(day time.Time) {
	months := simtime.Months(w.Cfg.HistoricalFrom, w.Cfg.End)
	weights := w.monthWeights()
	key := simtime.MonthKey(day)
	mi := -1
	for i, m := range months {
		if m == key {
			mi = i
			break
		}
	}
	if mi < 0 {
		return
	}
	daysInMonth := float64(time.Date(day.Year(), day.Month()+1, 1, 0, 0, 0, 0, time.UTC).Add(-time.Hour).Day())
	var plans []*certPlan
	for _, authority := range w.Authorities {
		totalScaled := float64(authority.Profile.TotalCerts) * w.Cfg.Scale
		authority.carry += totalScaled * weights[mi] / daysInMonth
		n := int(authority.carry)
		authority.carry -= float64(n)
		for i := 0; i < n; i++ {
			plans = append(plans, w.planCert(authority, day, len(w.Certs)+len(plans)))
		}
	}
	w.executePlans(plans)
	w.integratePlans(plans)
}

// markHeartbleed samples the exposed population and schedules each
// certificate's revocation day.
func (w *World) markHeartbleed(day time.Time) {
	for _, cs := range w.active {
		exposure := cs.Authority.Profile.HeartbleedExposure
		if exposure <= 0 || w.rng.Float64() >= exposure {
			continue
		}
		delay := w.rng.ExpFloat64() * w.Cfg.HeartbleedMeanDelay.Hours() / 24
		if delay > 90 {
			delay = 90
		}
		cs.hbDue = day.AddDate(0, 0, int(delay))
	}
}

// revokeDaily executes due Heartbleed revocations and samples steady-state
// ones; each authority's steadyCarry holds the fractional expectation
// between days.
func (w *World) revokeDaily(day time.Time) {
	// Heartbleed revocations due today. Iterate a copy: revocation can
	// mutate the active set.
	var due []*CertState
	for _, cs := range w.active {
		if !cs.hbDue.IsZero() && !cs.hbDue.After(day) {
			due = append(due, cs)
		}
	}
	for _, cs := range due {
		w.revokeCert(cs, day, w.heartbleedReason())
	}

	// Steady-state revocations: each authority spends its remaining
	// Table 1 revocation budget evenly over the remaining study days.
	daysLeft := simtime.DaysBetween(day, w.Cfg.End) + 1
	if daysLeft < 1 {
		daysLeft = 1
	}
	for _, authority := range w.Authorities {
		if authority.revBudget <= 0 || len(authority.pool) == 0 {
			continue
		}
		authority.steadyCarry += float64(authority.revBudget) / float64(daysLeft)
		n := int(authority.steadyCarry)
		authority.steadyCarry -= float64(n)
		attempts := 0
		for done := 0; done < n && len(authority.pool) > 0 && attempts < 10*n+50; attempts++ {
			cs := authority.pool[w.rng.Intn(len(authority.pool))]
			if !cs.Rec.FreshAt(day) {
				authority.poolRemove(cs)
				continue
			}
			w.revokeCert(cs, day, w.steadyReason())
			done++
		}
	}
}

func (w *World) heartbleedReason() crl.Reason {
	r := w.rng.Float64()
	switch {
	case r < 0.50:
		return crl.ReasonAbsent
	case r < 0.85:
		return crl.ReasonKeyCompromise
	default:
		return crl.ReasonUnspecified
	}
}

func (w *World) steadyReason() crl.Reason {
	r := w.rng.Float64()
	switch {
	case r < 0.60:
		return crl.ReasonAbsent
	case r < 0.72:
		return crl.ReasonUnspecified
	case r < 0.80:
		return crl.ReasonKeyCompromise
	case r < 0.90:
		return crl.ReasonSuperseded
	case r < 0.97:
		return crl.ReasonCessationOfOperation
	default:
		return crl.ReasonAffiliationChanged
	}
}

// revokeCert marks the certificate revoked at the CA and decides whether
// the administrator also rotates their servers.
func (w *World) revokeCert(cs *CertState, day time.Time, reason crl.Reason) {
	if cs.Revoked {
		return
	}
	if err := cs.Authority.CA.Revoke(cs.Rec.Serial, day, reason); err != nil {
		return
	}
	cs.Revoked = true
	cs.RevokedAt = day
	cs.Reason = reason
	cs.Authority.poolRemove(cs)
	cs.Authority.revBudget--
	if !cs.Advertised {
		w.deactivate(cs)
		return
	}
	if w.rng.Float64() < w.Cfg.KeepServingRevokedProb {
		// The administrator revoked but never redeployed: the revoked
		// certificate stays advertised (e.g. the vpn.trade.gov case,
		// §4.1). It leaves the eligible set either way.
		w.deactivate(cs)
		return
	}
	w.replace(cs, day)
}

// expireDaily retires or renews certificates whose validity ends today.
func (w *World) expireDaily(day time.Time) {
	key := dayKey(day)
	list := w.expiring[key]
	if list == nil {
		return
	}
	delete(w.expiring, key)
	for _, cs := range list {
		if !cs.Advertised {
			continue
		}
		if w.rng.Float64() < w.Cfg.ServeExpiredProb {
			// Keeps serving the expired certificate — stays alive in
			// scans but is no longer fresh. Not eligible for further
			// processing.
			w.deactivate(cs)
			continue
		}
		if w.rng.Float64() < w.Cfg.RenewProb {
			w.replace(cs, day)
		} else {
			w.retire(cs)
		}
	}
}

// generateCRLSet builds the day's CRLSet snapshot from the CRLs visible to
// Google's crawler.
func (w *World) generateCRLSet(day time.Time) {
	if !day.Before(w.Cfg.CRLSetOutageFrom) && day.Before(w.Cfg.CRLSetOutageTo) {
		// Generator outage: the previous set stays current.
		if w.lastSet != nil {
			w.Timeline.Add(day, w.lastSet)
		}
		return
	}
	w.crlsetSeq++
	w.srcBuf = w.appendSources(w.srcBuf[:0], day)
	set := crlset.Generate(w.generatorConfig(), w.srcBuf, w.crlsetSeq)
	w.lastSet = set
	w.Timeline.Add(day, set)
}

// generatorConfig scales Google's documented thresholds down to the
// world's scale: a CRL that would have >10k entries at full scale is
// dropped, and the byte cap shrinks proportionally (with a floor so the
// format overhead does not dominate).
func (w *World) generatorConfig() crlset.GeneratorConfig {
	maxEntries := int(float64(w.Cfg.CRLSetFullScaleMaxEntries) * w.Cfg.Scale)
	if maxEntries < 5 {
		maxEntries = 5
	}
	maxBytes := int(math.Max(4096, float64(crlset.MaxBytes)*w.Cfg.Scale))
	return crlset.GeneratorConfig{
		MaxBytes:      maxBytes,
		MaxCRLEntries: maxEntries,
		FilterReasons: true,
	}
}

// Sources returns the current CRL universe as CRLSet generator input,
// with public visibility as of the given day.
func (w *World) Sources(day time.Time) []crlset.SourceCRL {
	return w.appendSources(nil, day)
}

// appendSources appends the day's sources to buf, growing it at most once.
func (w *World) appendSources(buf []crlset.SourceCRL, day time.Time) []crlset.SourceCRL {
	if cap(buf)-len(buf) == 0 {
		n := 0
		for _, authority := range w.Authorities {
			n += authority.Profile.CRLShards
		}
		grown := make([]crlset.SourceCRL, len(buf), len(buf)+n)
		copy(grown, buf)
		buf = grown
	}
	for _, authority := range w.Authorities {
		public := authority.Profile.GoogleCrawled
		if authority.Profile.Name == w.Cfg.CRLSetParentRemovedCA && !day.Before(w.Cfg.CRLSetParentRemovalAt) {
			public = false
		}
		for shard := 0; shard < authority.Profile.CRLShards; shard++ {
			buf = append(buf, crlset.SourceCRL{
				Parent:  authority.Parent,
				URL:     authority.CA.CRLURL(shard),
				Public:  public,
				Entries: authority.CA.CRLEntries(shard, day),
			})
		}
	}
	return buf
}

// LatestSet returns the most recent CRLSet snapshot.
func (w *World) LatestSet() *crlset.Set { return w.lastSet }
