package workload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/revdb"
)

// CascadeFeed is the aggregator-side input a filter-cascade publisher
// consumes from a built world: the enrolled parents (every web CA), the
// crawl-day schedule with the revocation keys first observed (and the
// expired keys the CAs pruned) on each day, and a streaming visitor over
// the full observed-certificate population.
type CascadeFeed struct {
	// Parents are the enrolled issuers, one per authority.
	Parents []cascade.Parent
	// Days are the crawl days, ascending.
	Days []time.Time
	// Adds[i] holds keys of revocations first observed on Days[i];
	// Adds[0] also carries everything the crawl already knew on day
	// zero (the pre-study backfill).
	Adds [][][]byte
	// Removes[i] holds keys the CAs dropped from their CRLs before
	// Days[i] — expired certificates pruned per DropExpiredFromCRL.
	Removes [][][]byte
	// VisitKnown streams every observed certificate as a cascade key,
	// straight off the corpus. It always streams the finished world's
	// whole corpus, whichever day is being published, which is what
	// lets a cascade.Publisher read it once and keep the result for the
	// chain's life (cascade.PublishConfig.VisitKnown).
	VisitKnown func(fn func(key []byte) bool)
	// Revocations is the total key count across Adds.
	Revocations int
}

// parentMaps indexes every CRL shard URL and every CA name to the
// authority's cascade parent (its SPKI hash).
func (w *World) parentMaps() (byURL, byName map[string]cascade.Parent) {
	byURL = make(map[string]cascade.Parent)
	byName = make(map[string]cascade.Parent, len(w.Authorities))
	for _, a := range w.Authorities {
		p := cascade.Parent(a.Parent)
		byName[a.Profile.Name] = p
		for shard := 0; shard < a.Profile.CRLShards; shard++ {
			byURL[a.CA.CRLURL(shard)] = p
		}
	}
	return byURL, byName
}

// CascadeFeed derives the publisher input from the world's revocation
// database, crawl archive, and corpus: one epoch per crawl day, adds
// bucketed by the day the crawl first observed each revocation. It must
// be called on a fully run world (the archive supplies the schedule).
func (w *World) CascadeFeed() (*CascadeFeed, error) {
	snaps := w.Archive.Snapshots()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("cascade feed: world has no crawl archive")
	}
	days := make([]time.Time, len(snaps))
	for i, snap := range snaps {
		days[i] = snap.Day
	}
	return w.cascadeFeed(days, func(e *revdb.Entry) time.Time { return e.FirstSeen })
}

// CascadeFeedFullStudy is the counterfactual series for bandwidth
// accounting: an aggregator publishing daily for the whole study period,
// with adds bucketed by each revocation's RevokedAt — the date the CRL
// itself asserts — rather than by crawl observation. The CRL crawl only
// covers the final six months, so this is the feed that places the
// Heartbleed mass-revocation surge (April 2014) in the delta stream; its
// final snapshot is identical in content to CascadeFeed's.
func (w *World) CascadeFeedFullStudy() (*CascadeFeed, error) {
	var days []time.Time
	for day := w.Cfg.Start; !day.After(w.Cfg.End); day = day.AddDate(0, 0, 1) {
		days = append(days, day)
	}
	return w.cascadeFeed(days, func(e *revdb.Entry) time.Time { return e.RevokedAt })
}

func (w *World) cascadeFeed(days []time.Time, addDay func(e *revdb.Entry) time.Time) (*CascadeFeed, error) {
	byURL, byName := w.parentMaps()
	feed := &CascadeFeed{
		Days:    days,
		Adds:    make([][][]byte, len(days)),
		Removes: make([][][]byte, len(days)),
	}
	for _, a := range w.Authorities {
		feed.Parents = append(feed.Parents, cascade.Parent(a.Parent))
	}

	// dayAtOrAfter returns the index of the first feed day >= t, clamped
	// into range (backfilled revocations predate day zero).
	dayAtOrAfter := func(t time.Time) int {
		i := sort.Search(len(days), func(i int) bool { return !days[i].Before(t) })
		if i == len(days) {
			i = len(days) - 1
		}
		return i
	}

	var missing int
	w.RevDB.VisitEntries(func(e *revdb.Entry) bool {
		p, ok := byURL[e.CRLURL]
		if !ok {
			missing++
			return true
		}
		key := cascade.AppendKey(nil, p, e.Serial.Bytes())
		add := dayAtOrAfter(addDay(e))
		feed.Adds[add] = append(feed.Adds[add], key)
		feed.Revocations++
		// An entry whose LastSeen predates the final crawl was pruned
		// from its CRL (the certificate expired): the first feed day
		// strictly after LastSeen observes the removal.
		if e.LastSeen.Before(days[len(days)-1]) {
			rm := dayAtOrAfter(e.LastSeen.Add(time.Nanosecond))
			if rm > add {
				feed.Removes[rm] = append(feed.Removes[rm], key)
			}
		}
		return true
	})
	if missing > 0 {
		return nil, fmt.Errorf("cascade feed: %d revocations under unknown CRL URLs", missing)
	}

	feed.VisitKnown = func(fn func(key []byte) bool) {
		var buf [96]byte
		stop := false
		w.Corpus.Visit(func(ct *corpus.Cert) bool {
			p, ok := byName[ct.CAName()]
			if !ok {
				return true // non-web CA; never enrolled
			}
			if !fn(cascade.AppendKey(buf[:0], p, ct.Serial())) {
				stop = true
			}
			return !stop
		})
	}
	return feed, nil
}

// CascadeAudit is the exactness and coverage audit of one published
// snapshot against the world's ground truth.
type CascadeAudit struct {
	// CertsChecked is the number of corpus certificates probed.
	CertsChecked int
	// RevokedInCorpus counts probed certificates whose revocation is
	// still listed on the audit day.
	RevokedInCorpus int
	// ListedRevocations counts database entries still listed on the
	// audit day (including certificates never advertised); Missed is
	// how many of them the cascade failed to flag.
	ListedRevocations int
	Missed            int
	// FalsePositives and FalseNegatives count corpus certificates whose
	// cascade verdict contradicts the database.
	FalsePositives int
	FalseNegatives int
}

// Exact reports whether the cascade agreed with ground truth everywhere.
func (a CascadeAudit) Exact() bool {
	return a.FalsePositives == 0 && a.FalseNegatives == 0 && a.Missed == 0
}

// shardURLs indexes every authority's CRL shard URLs by CA name.
func (w *World) shardURLs() map[string][]string {
	urls := make(map[string][]string, len(w.Authorities))
	for _, a := range w.Authorities {
		list := make([]string, a.Profile.CRLShards)
		for shard := range list {
			list[shard] = a.CA.CRLURL(shard)
		}
		urls[a.Profile.Name] = list
	}
	return urls
}

// listedOn reports whether a certificate's revocation is listed under any
// of its issuing CA's CRL shards on the given day. The cert's own CRL
// pointer is not enough: OCSP-only certificates carry no pointer at all,
// yet their CA still lists the revocation on its CRL.
func (w *World) listedOn(urls []string, serial []byte, day time.Time) bool {
	for _, url := range urls {
		if m, found := w.RevDB.LookupMeta(url, serial); found {
			return !m.LastSeen.Before(day)
		}
	}
	return false
}

// AuditCascade probes a published snapshot with every corpus certificate
// and every revocation entry, comparing verdicts against the revocation
// database as of the given day (normally the snapshot's build day).
func (w *World) AuditCascade(snapshot []byte, day time.Time) (CascadeAudit, error) {
	flt, err := cascade.Decode(snapshot)
	if err != nil {
		return CascadeAudit{}, err
	}
	byURL, byName := w.parentMaps()
	shards := w.shardURLs()
	var a CascadeAudit
	var buf [96]byte
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		p, ok := byName[ct.CAName()]
		if !ok {
			return true
		}
		verdict := flt.Revoked(cascade.AppendKey(buf[:0], p, ct.Serial()))
		truth := w.listedOn(shards[ct.CAName()], ct.Serial(), day)
		a.CertsChecked++
		if truth {
			a.RevokedInCorpus++
		}
		if verdict && !truth {
			a.FalsePositives++
		} else if !verdict && truth {
			a.FalseNegatives++
		}
		return true
	})
	w.RevDB.VisitEntries(func(e *revdb.Entry) bool {
		if e.LastSeen.Before(day) {
			return true
		}
		a.ListedRevocations++
		if !flt.Revoked(cascade.AppendKey(buf[:0], byURL[e.CRLURL], e.Serial.Bytes())) {
			a.Missed++
		}
		return true
	})
	return a, nil
}

// CascadeSeries is the published artifact chain for one world: the
// day-zero snapshot, one delta per subsequent day, and the final
// snapshot, plus the full per-day snapshot sizes for bandwidth
// accounting. Intermediate snapshots are not retained — the delta chain
// reconstructs any of them byte-exactly.
type CascadeSeries struct {
	Days  []time.Time
	First []byte // epoch-1 snapshot (Days[0])
	Final []byte // last epoch's snapshot
	// Deltas[i] transforms day i-1's snapshot into day i's;
	// Deltas[0] is nil.
	Deltas [][]byte
	// SnapshotSizes[i] is the full snapshot size on Days[i].
	SnapshotSizes []int
}

// BuildCascadeSeries runs a publisher over the crawl-observation feed:
// one epoch per crawl day, 48-hour freshness windows (daily cadence with
// one day of grace).
func (w *World) BuildCascadeSeries() (*CascadeFeed, *CascadeSeries, error) {
	feed, err := w.CascadeFeed()
	if err != nil {
		return nil, nil, err
	}
	series, err := feed.PublishKind(cascade.KindRibbon)
	if err != nil {
		return nil, nil, err
	}
	return feed, series, nil
}

// PublishKind runs a fresh publisher over the feed's full schedule and
// returns the artifact chain. kind is not read: there is one chain kind
// (see cascade.LevelKind).
func (f *CascadeFeed) PublishKind(kind cascade.LevelKind) (*CascadeSeries, error) {
	pub := cascade.NewPublisher(cascade.PublishConfig{
		Parents:    f.Parents,
		VisitKnown: f.VisitKnown,
		MaxAge:     48 * time.Hour,
	})
	series := &CascadeSeries{
		Days:          f.Days,
		Deltas:        make([][]byte, len(f.Days)),
		SnapshotSizes: make([]int, len(f.Days)),
	}
	for i, day := range f.Days {
		snap, delta, err := pub.Advance(day, f.Adds[i], f.Removes[i])
		if err != nil {
			return nil, fmt.Errorf("cascade feed: day %s: %w", day.Format("2006-01-02"), err)
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
