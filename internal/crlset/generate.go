package crlset

import (
	"math/big"
	"time"

	"repro/internal/crl"
)

// SourceCRL is one crawled CRL as the generator sees it: the issuing key's
// SPKI hash plus the entries from the most recent crawl.
type SourceCRL struct {
	Parent Parent
	URL    string
	// Public reports whether Google's crawler can see this CRL at all;
	// the generator skips non-public CRLs, and §7.2 finds 10 of 62
	// CRLSet parents come from non-public CRLs Google sees privately.
	Public  bool
	Entries []crl.Entry
}

type serialEntry struct {
	serial []byte // compact big-endian magnitude, aliasing crl.Entry.Serial
}

// GeneratorConfig captures Google's documented CRLSet construction rules
// (§7.1): a hard size cap, a reason-code filter, and dropping CRLs that
// are too large to fit.
type GeneratorConfig struct {
	// MaxBytes caps the marshaled size; MaxBytes (250 KB) when zero.
	MaxBytes int
	// MaxCRLEntries drops any CRL with more entries ("if a CRL has too
	// many entries it will be dropped"); 10,000 when zero.
	MaxCRLEntries int
	// FilterReasons keeps only revocations whose reason code is
	// CRLSet-eligible (no reason, Unspecified, KeyCompromise,
	// CACompromise, AACompromise).
	FilterReasons bool
}

func (c *GeneratorConfig) fillDefaults() {
	if c.MaxBytes <= 0 {
		c.MaxBytes = MaxBytes
	}
	if c.MaxCRLEntries <= 0 {
		c.MaxCRLEntries = 10000
	}
}

// Generate builds one CRLSet snapshot from the crawled CRLs. CRLs are
// considered in deterministic parent order; a CRL that would push the set
// past the size cap is dropped wholesale, like the oversized-CRL rule.
func Generate(cfg GeneratorConfig, sources []SourceCRL, sequence int) *Set {
	cfg.fillDefaults()
	set := NewSet(sequence)

	// Group eligible entries per parent+URL, applying the per-CRL rules.
	type candidate struct {
		parent  Parent
		entries []serialEntry
	}
	byParent := make(map[Parent][]serialEntry)
	for _, src := range sources {
		if !src.Public {
			continue
		}
		if len(src.Entries) > cfg.MaxCRLEntries {
			continue // oversized CRL dropped entirely
		}
		for _, e := range src.Entries {
			if cfg.FilterReasons && !e.Reason.CRLSetEligible() {
				continue
			}
			byParent[src.Parent] = append(byParent[src.Parent], serialEntry{serial: e.Serial})
		}
	}

	// Admit parents in deterministic order until the size cap.
	size := set.Size()
	for _, p := range sortedParents(byParent) {
		entries := byParent[p]
		// Parent block: 32-byte hash + 4-byte count + per-serial
		// (1 + len) bytes.
		add := 36
		for _, e := range entries {
			add += 1 + len(e.serial)
		}
		if size+add > cfg.MaxBytes {
			continue
		}
		for _, e := range entries {
			set.AddSerial(p, e.serial)
		}
		size += add
	}
	return set
}

// Timeline is a day-indexed sequence of CRLSet snapshots, the shape of the
// paper's 300-snapshot corpus.
type Timeline struct {
	days []time.Time
	sets []*Set
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Add appends a day's snapshot; days must be added in order.
func (tl *Timeline) Add(day time.Time, s *Set) {
	if n := len(tl.days); n > 0 && day.Before(tl.days[n-1]) {
		panic("crlset: timeline days must be in order")
	}
	tl.days = append(tl.days, day)
	tl.sets = append(tl.sets, s)
}

// Len returns the number of snapshots.
func (tl *Timeline) Len() int { return len(tl.days) }

// Days returns the snapshot days in order.
func (tl *Timeline) Days() []time.Time {
	out := make([]time.Time, len(tl.days))
	copy(out, tl.days)
	return out
}

// At returns the snapshot for day i.
func (tl *Timeline) At(i int) (time.Time, *Set) { return tl.days[i], tl.sets[i] }

// EntryCounts returns the per-day entry totals (Figure 8's series).
func (tl *Timeline) EntryCounts() []int {
	out := make([]int, len(tl.sets))
	for i, s := range tl.sets {
		out[i] = s.NumEntries()
	}
	return out
}

// Lifetime is when a timeline's snapshots covered one (parent, serial).
type Lifetime struct {
	// First is the first day it was covered.
	First time.Time
	// Removed is the first day it was absent after having been covered;
	// zero when it was still covered on the timeline's last day. A later
	// re-appearance does not move it.
	Removed time.Time
}

// Lifetimes holds the Lifetime of every (parent, serial) a timeline ever
// covered.
type Lifetimes struct {
	days  []time.Time
	spans map[Parent]map[string]*span
}

// span is a Lifetime in day indices. removed is 0 while the entry has
// been covered on every day since first: day 0 can be nobody's removal.
type span struct {
	first, last, removed int
}

// Lifetimes makes one pass over the snapshots, day by day, and returns
// the first appearance and first removal of everything they cover: the
// cost is the snapshots' total size, where asking the snapshots about one
// serial at a time costs a scan of all the days for each.
func (tl *Timeline) Lifetimes() *Lifetimes {
	lt := &Lifetimes{days: tl.days, spans: make(map[Parent]map[string]*span)}
	for i, s := range tl.sets {
		for p, serials := range s.parents {
			spans := lt.spans[p]
			if spans == nil {
				spans = make(map[string]*span, len(serials))
				lt.spans[p] = spans
			}
			for _, serial := range serials {
				sp := spans[serial]
				if sp == nil {
					spans[serial] = &span{first: i, last: i}
					continue
				}
				if sp.removed == 0 && sp.last < i-1 {
					sp.removed = sp.last + 1
				}
				sp.last = i
			}
		}
	}
	return lt
}

// Lookup returns the lifetime of (parent, serial); ok is false when no
// snapshot ever covered it.
func (lt *Lifetimes) Lookup(p Parent, serial *big.Int) (Lifetime, bool) {
	sp := lt.spans[p][string(serial.Bytes())]
	if sp == nil {
		return Lifetime{}, false
	}
	life := Lifetime{First: lt.days[sp.first]}
	switch {
	case sp.removed != 0:
		life.Removed = lt.days[sp.removed]
	case sp.last < len(lt.days)-1:
		life.Removed = lt.days[sp.last+1]
	}
	return life, true
}

// Additions returns, per day index >= 1, how many entries are new relative
// to the previous day's snapshot (Figure 9's CRLSet series).
func (tl *Timeline) Additions() []int {
	out := make([]int, 0, len(tl.sets))
	for i := 1; i < len(tl.sets); i++ {
		prev, cur := tl.sets[i-1], tl.sets[i]
		added := 0
		for _, p := range cur.order {
			old := make(map[string]bool, len(prev.parents[p]))
			for _, serial := range prev.parents[p] {
				old[serial] = true
			}
			for _, serial := range cur.parents[p] {
				if !old[serial] {
					added++
				}
			}
		}
		out = append(out, added)
	}
	return out
}

// Coverage summarizes how much of the CRL universe a CRLSet covers — the
// §7.2 analysis.
type Coverage struct {
	// TotalRevocations counts entries across all crawled CRLs;
	// CoveredRevocations counts those present in the set.
	TotalRevocations   int
	CoveredRevocations int
	// EligibleRevocations counts entries with CRLSet-eligible reasons.
	EligibleRevocations int
	// TotalCRLs and CoveredCRLs count CRLs with >= 1 entry in the set.
	TotalCRLs   int
	CoveredCRLs int
	// PerCoveredCRLAll and PerCoveredCRLEligible are the Figure 7
	// distributions: for each covered CRL, the fraction of its entries
	// (all, and eligible-only) that appear in the set.
	PerCoveredCRLAll      []float64
	PerCoveredCRLEligible []float64
}

// CoverageFraction returns covered/total revocations (the paper's 0.35%).
func (c Coverage) CoverageFraction() float64 {
	if c.TotalRevocations == 0 {
		return 0
	}
	return float64(c.CoveredRevocations) / float64(c.TotalRevocations)
}

// AnalyzeCoverage compares a CRLSet against the full CRL corpus.
func AnalyzeCoverage(set *Set, sources []SourceCRL) Coverage {
	var cov Coverage
	for _, src := range sources {
		cov.TotalCRLs++
		inSet, eligible, eligibleInSet := 0, 0, 0
		for _, e := range src.Entries {
			cov.TotalRevocations++
			if e.Reason.CRLSetEligible() {
				cov.EligibleRevocations++
				eligible++
			}
			if set.CoversSerial(src.Parent, e.Serial) {
				cov.CoveredRevocations++
				inSet++
				if e.Reason.CRLSetEligible() {
					eligibleInSet++
				}
			}
		}
		if inSet > 0 {
			cov.CoveredCRLs++
			if len(src.Entries) > 0 {
				cov.PerCoveredCRLAll = append(cov.PerCoveredCRLAll, float64(inSet)/float64(len(src.Entries)))
			}
			if eligible > 0 {
				cov.PerCoveredCRLEligible = append(cov.PerCoveredCRLEligible, float64(eligibleInSet)/float64(eligible))
			}
		}
	}
	return cov
}
