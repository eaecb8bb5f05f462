// Package corpus stores what the scans observed: for every certificate,
// the first and last scan that advertised it, how many scans did, and how
// many hosts advertised and stapled it at the last. From those it derives
// the paper's two per-certificate timelines (§3.3, Figure 1):
//
//   - fresh:  the validity window [NotBefore, NotAfter]
//   - alive:  from the first scan that saw the certificate (birth) to the
//     last scan that saw it (death)
//
// Both timelines deliberately ignore revocation — clients that skip
// revocation checks will accept a revoked-but-fresh certificate, which is
// exactly the exposure Figure 2 quantifies.
//
// Certificates get dense uint32 IDs at first sighting, and their
// attributes live in struct-of-arrays columns (columns.go); no per-scan
// sighting is kept once its scan is folded in. Consumers walk the corpus
// through the Visit and IterAlive cursors.
package corpus

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ca"
)

// Advertisement is one certificate's appearance in a single scan.
type Advertisement struct {
	Record       *ca.Record
	Hosts        int
	StapledHosts int
}

// Corpus accumulates scan results in the columnar streaming layout.
type Corpus struct {
	mu   sync.RWMutex
	cols *columns
	idx  certIndex
	// caSyms interns CA names (uint16 column), urlSyms CRL/OCSP URLs.
	caSyms  symtab
	urlSyms symtab

	scans     []time.Time
	scansNano []int64
}

// New returns an empty corpus.
func New() *Corpus { return &Corpus{cols: newColumns()} }

// RecordScan ingests one full scan. Scans must be ingested in
// chronological order. Each certificate should appear at most once per
// scan (the scanner aggregates hosts before calling).
func (c *Corpus) RecordScan(at time.Time, ads []Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.scans); n > 0 && at.Before(c.scans[n-1]) {
		panic("corpus: scans must be ingested in order")
	}
	scanIdx := uint32(len(c.scans))
	c.scans = append(c.scans, at)
	c.scansNano = append(c.scansNano, at.UnixNano())
	for i := range ads {
		ad := &ads[i]
		id := c.internLocked(ad.Record, scanIdx)
		c.cols.death[id] = scanIdx
		c.cols.nSight[id]++
		c.cols.lastHosts[id] = uint32(ad.Hosts)
		c.cols.lastStap[id] = uint32(ad.StapledHosts)
	}
}

// internLocked returns the ID for rec, assigning the next dense ID on
// first sighting.
func (c *Corpus) internLocked(rec *ca.Record, scanIdx uint32) uint32 {
	mag := rec.SerialMagnitude()
	if sym, ok := c.caSyms.find(rec.CAName); ok {
		if id, ok := c.idx.lookup(c.cols, uint16(sym), mag); ok {
			return id
		}
	}
	sym := c.caSyms.intern(rec.CAName)
	if sym > 0xffff {
		panic("corpus: more than 65536 distinct CA names")
	}
	crlSym := c.urlSyms.intern(rec.CRLURL)
	ocspSym := c.urlSyms.intern(rec.OCSPURL)
	id := c.cols.add(rec, uint16(sym), crlSym, ocspSym, scanIdx)
	c.idx.insert(c.cols, id)
	return id
}

// NumScans returns how many scans have been ingested.
func (c *Corpus) NumScans() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.scans)
}

// Scans returns the ingested scan times.
func (c *Corpus) Scans() []time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]time.Time, len(c.scans))
	copy(out, c.scans)
	return out
}

// Size returns the number of distinct certificates ever observed.
func (c *Corpus) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cols.n()
}

// IDOf returns the dense ID assigned to rec, if observed. IDs are
// assigned contiguously from 0 in first-seen order.
func (c *Corpus) IDOf(rec *ca.Record) (uint32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sym, ok := c.caSyms.find(rec.CAName)
	if !ok {
		return 0, false
	}
	return c.idx.lookup(c.cols, uint16(sym), rec.SerialMagnitude())
}

// Population is a snapshot count at one instant.
type Population struct {
	Fresh   int // certificates inside their validity window
	Alive   int // certificates inside their advertised lifetime
	FreshEV int
	AliveEV int
}

// PopulationAt counts fresh and alive certificates at t.
func (c *Corpus) PopulationAt(t time.Time) Population {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tn := t.UnixNano()
	var p Population
	for id := 0; id < c.cols.n(); id++ {
		fresh := c.cols.notBefore[id] <= tn && tn <= c.cols.notAfter[id]
		alive := c.scansNano[c.cols.birth[id]] <= tn && tn <= c.scansNano[c.cols.death[id]]
		ev := c.cols.flags[id]&flagEV != 0
		if fresh {
			p.Fresh++
			if ev {
				p.FreshEV++
			}
		}
		if alive {
			p.Alive++
			if ev {
				p.AliveEV++
			}
		}
	}
	return p
}

// Lifetimes returns, for each certificate, the advertised lifetime in
// days, sorted ascending — input for lifetime CDFs.
func (c *Corpus) Lifetimes() []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]float64, 0, c.cols.n())
	for id := 0; id < c.cols.n(); id++ {
		birth := c.scans[c.cols.birth[id]]
		death := c.scans[c.cols.death[id]]
		out = append(out, death.Sub(birth).Hours()/24)
	}
	sort.Float64s(out)
	return out
}
