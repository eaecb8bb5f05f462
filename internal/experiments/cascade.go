package experiments

import (
	"fmt"
	"time"

	"repro/internal/cascade"
)

// CascadeBandwidth measures the daily per-client download cost of the
// CRLite-style filter cascade (day-zero snapshot, then one binary delta
// per day) against the two distribution mechanisms the paper evaluates:
// Google's CRLSet (a full re-download whenever the set changes, covering
// 0.35% of revocations) and raw CRLs (what the crawler itself downloads
// to cover everything). The cascade publishes over the full study period,
// as one monolithic chain and as per-issuer shards, with additions dated
// by what the CRLs themselves assert (RevokedAt), so the Heartbleed mass
// revocation lands in the delta stream. It must beat
// raw CRLs outright and stay within 2x of the CRLSet's bytes while
// covering 100% of listed revocations exactly — the §7.4 "could browsers
// afford full coverage?" question answered with a concrete artifact.
func (r *Runner) CascadeBandwidth() (*Result, error) {
	feed, err := r.World.CascadeFeedFullStudy()
	if err != nil {
		return nil, err
	}
	series, err := feed.PublishKind(cascade.KindRibbon)
	if err != nil {
		return nil, err
	}
	days := series.Days
	finalDay := days[len(days)-1]

	// The same feed through per-issuer shards. A sharded client is a
	// browser: it trusts (and downloads) only the web CAs' shards, so the
	// non-web issuers' revocation mass — the bulk of R — never reaches it.
	webParents := make(map[cascade.Parent]bool, len(r.World.Authorities))
	for _, a := range r.World.Authorities {
		if a.Profile.WebCA() {
			webParents[cascade.Parent(a.Parent)] = true
		}
	}
	webTrust := func(p cascade.Parent) bool { return webParents[p] }
	sharded, err := feed.PublishSharded(cascade.KindRibbon)
	if err != nil {
		return nil, err
	}
	shardTotal, shardDays := sharded.ClientBytes(webTrust)
	avgShard := float64(shardTotal) / float64(shardDays)

	// Per-day cascade bytes: the full snapshot on day zero, the delta on
	// every later day.
	cascadeBytes := make([]int64, len(days))
	cascadeBytes[0] = int64(len(series.First))
	var cascadeTotal int64
	for i, d := range series.Deltas {
		if i > 0 {
			cascadeBytes[i] = int64(len(d))
		}
		cascadeTotal += cascadeBytes[i]
	}

	// Per-day CRLSet bytes: a client downloads the full set each day the
	// generator publishes a new one (the outage re-serves the old set).
	setBytes := make(map[time.Time]int64)
	var setTotal int64
	var setDays int
	var prevSeq = -1
	for i := 0; i < r.World.Timeline.Len(); i++ {
		day, set := r.World.Timeline.At(i)
		setDays++
		if set.Sequence == prevSeq {
			continue
		}
		prevSeq = set.Sequence
		data, err := set.Marshal()
		if err != nil {
			return nil, err
		}
		setBytes[day] = int64(len(data))
		setTotal += int64(len(data))
	}

	// Per-day raw-CRL bytes: what the crawl itself downloaded.
	var crlTotal int64
	crlBytes := make(map[time.Time]int64)
	for _, snap := range r.World.Archive.Snapshots() {
		crlBytes[snap.Day] = snap.Bytes
		crlTotal += snap.Bytes
	}
	crawlDays := len(r.World.Archive.Snapshots())

	res := &Result{
		ID:     "ext-cascade",
		Title:  "Filter-cascade bytes/day/client vs CRLSet vs raw CRLs",
		Header: []string{"day", "cascade_bytes", "crlset_bytes", "raw_crl_bytes"},
	}
	for i := 0; i < len(days); i += 7 {
		res.Rows = append(res.Rows, []string{
			fdate(days[i]),
			fmt.Sprint(cascadeBytes[i]),
			fmt.Sprint(setBytes[days[i]]),
			fmt.Sprint(crlBytes[days[i]]),
		})
	}

	// Each mechanism averaged over the days it was actually serving
	// clients: the cascade over the whole study, the CRLSet over its
	// publication timeline, raw CRLs over the crawl window.
	avgCascade := float64(cascadeTotal) / float64(len(days))
	avgSet := float64(setTotal) / float64(setDays)
	avgCRL := float64(crlTotal) / float64(crawlDays)

	// Heartbleed: the delta stream must carry the revocation surge.
	hb := r.World.Cfg.HeartbleedAt
	var before, after, beforeN, afterN float64
	for i, day := range days {
		switch {
		case day.Before(hb) && !day.Before(hb.AddDate(0, 0, -45)):
			before += float64(cascadeBytes[i])
			beforeN++
		case !day.Before(hb) && day.Before(hb.AddDate(0, 0, 45)):
			after += float64(cascadeBytes[i])
			afterN++
		}
	}
	spike := 0.0
	if before > 0 && beforeN > 0 && afterN > 0 {
		spike = (after / afterN) / (before / beforeN)
	}

	audit, err := r.World.AuditCascade(series.Final, finalDay)
	if err != nil {
		return nil, err
	}
	webSet, err := sharded.Install(webTrust)
	if err != nil {
		return nil, err
	}
	shardAudit, err := r.World.AuditCascadeShards(webSet, finalDay)
	if err != nil {
		return nil, err
	}

	res.Findings = []Finding{
		{
			Metric:   "cascade bytes/day vs raw CRLs",
			Paper:    "CRLs cost clients megabytes per day",
			Measured: fmt.Sprintf("%.0f B/day vs %.0f B/day (%.1fx less)", avgCascade, avgCRL, avgCRL/avgCascade),
			OK:       avgCascade < avgCRL,
		},
		{
			Metric:   "cascade bytes/day vs CRLSet",
			Paper:    "full coverage within a CRLSet-like budget",
			Measured: fmt.Sprintf("%.0f B/day vs %.0f B/day CRLSet", avgCascade, avgSet),
			OK:       avgSet == 0 || avgCascade <= 2*avgSet,
		},
		{
			Metric: "revocation coverage",
			Paper:  "CRLSet covers 0.35%; cascade covers all",
			Measured: fmt.Sprintf("%d of %d listed revocations, %d FP / %d FN over %d certs",
				audit.ListedRevocations-audit.Missed, audit.ListedRevocations,
				audit.FalsePositives, audit.FalseNegatives, audit.CertsChecked),
			OK: audit.ListedRevocations > 0 && audit.Exact(),
		},
		{
			Metric:   "Heartbleed delta surge",
			Paper:    "mass revocation inflates the update stream",
			Measured: fmt.Sprintf("%.1fx bytes/day in the 45 days after disclosure", spike),
			OK:       spike > 1.2,
		},
		{
			Metric: "bytes/day/client matrix",
			Paper:  "every cascade variant costs a small fraction of raw CRLs",
			Measured: fmt.Sprintf("monolithic %.0f, sharded %.0f B/day vs %.0f raw",
				avgCascade, avgShard, avgCRL),
			// Sharding pays a fixed daily manifest (~60 B/shard), so at this
			// world's small revocation volume the monolithic chain can be
			// cheaper; the next finding holds the sharded chain to the
			// CRLSet's budget. Here both must beat raw CRLs by an order of
			// magnitude.
			OK: 10*avgCascade < avgCRL && 10*avgShard < avgCRL,
		},
		{
			Metric: "sharded ribbon vs CRLSet",
			Paper:  "full web coverage below the CRLSet's own budget",
			Measured: fmt.Sprintf("%.0f B/day/client vs %.0f B/day CRLSet, exact over %d certs",
				avgShard, avgSet, shardAudit.CertsChecked),
			OK: (avgSet == 0 || avgShard < avgSet) && shardAudit.Exact() && shardAudit.CertsChecked > 0,
		},
	}
	return res, nil
}
