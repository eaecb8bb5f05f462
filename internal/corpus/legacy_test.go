package corpus

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
)

// Sighting records one scan's view of a certificate.
type Sighting struct {
	Scan time.Time
	// Hosts is how many addresses advertised the certificate.
	Hosts int
	// StapledHosts is how many of those presented an OCSP staple.
	StapledHosts int
}

// History is the observed lifetime of one certificate.
//
// Invariant: a History handed out by Legacy always has at least one
// Sighting — a certificate enters only by being observed. Histories
// built by hand may be empty; the timeline methods treat an empty
// history as never observed (zero Birth/Death, alive at no instant)
// instead of panicking.
type History struct {
	Record    *ca.Record
	Sightings []Sighting
}

// Birth returns the first scan at which the certificate was seen, or the
// zero time if it was never observed.
func (h *History) Birth() time.Time {
	if len(h.Sightings) == 0 {
		return time.Time{}
	}
	return h.Sightings[0].Scan
}

// Death returns the last scan at which the certificate was seen, or the
// zero time if it was never observed.
func (h *History) Death() time.Time {
	if len(h.Sightings) == 0 {
		return time.Time{}
	}
	return h.Sightings[len(h.Sightings)-1].Scan
}

// AliveAt reports whether t falls inside [Birth, Death]. A certificate
// missed by one scan but seen again later is still alive in between. A
// never-observed certificate is alive at no instant.
func (h *History) AliveAt(t time.Time) bool {
	if len(h.Sightings) == 0 {
		return false
	}
	return !t.Before(h.Birth()) && !t.After(h.Death())
}

// FreshAt reports whether t falls inside the validity window.
func (h *History) FreshAt(t time.Time) bool { return h.Record.FreshAt(t) }

// AdvertisedAfterExpiry reports whether the certificate was still being
// served after NotAfter — the "atypical certificate" of Figure 1.
func (h *History) AdvertisedAfterExpiry() bool {
	if len(h.Sightings) == 0 {
		return false
	}
	return h.Death().After(h.Record.NotAfter)
}

// Legacy is the original pointer-keyed, fully materialized corpus
// engine: a map from record pointer to a History holding every Sighting
// as live Go objects. Tests keep it as the differential oracle for the
// streaming Corpus (their folds must agree exactly) and as the in-memory
// baseline of the build-throughput gate. Its memory footprint grows with
// total sightings; the streaming engine's grows with certificates only.
type Legacy struct {
	mu        sync.RWMutex
	histories map[*ca.Record]*History
	order     []*History
	scans     []time.Time
}

// NewLegacy returns an empty in-memory corpus.
func NewLegacy() *Legacy {
	return &Legacy{histories: make(map[*ca.Record]*History)}
}

// RecordScan ingests one full scan. Scans must be ingested in
// chronological order.
func (c *Legacy) RecordScan(at time.Time, ads []Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.scans); n > 0 && at.Before(c.scans[n-1]) {
		panic("corpus: scans must be ingested in order")
	}
	c.scans = append(c.scans, at)
	for _, ad := range ads {
		h := c.histories[ad.Record]
		if h == nil {
			h = &History{Record: ad.Record}
			c.histories[ad.Record] = h
			c.order = append(c.order, h)
		}
		h.Sightings = append(h.Sightings, Sighting{Scan: at, Hosts: ad.Hosts, StapledHosts: ad.StapledHosts})
	}
}

// NumScans returns how many scans have been ingested.
func (c *Legacy) NumScans() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.scans)
}

// Scans returns the ingested scan times.
func (c *Legacy) Scans() []time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]time.Time, len(c.scans))
	copy(out, c.scans)
	return out
}

// Size returns the number of distinct certificates ever observed.
func (c *Legacy) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.order)
}

// Histories returns every certificate history in first-seen order.
func (c *Legacy) Histories() []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*History, len(c.order))
	copy(out, c.order)
	return out
}

// History returns the history for rec, if observed.
func (c *Legacy) History(rec *ca.Record) (*History, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.histories[rec]
	return h, ok
}

// PopulationAt counts fresh and alive certificates at t.
func (c *Legacy) PopulationAt(t time.Time) Population {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var p Population
	for _, h := range c.order {
		fresh := h.Record.FreshAt(t)
		alive := h.AliveAt(t)
		if fresh {
			p.Fresh++
			if h.Record.EV {
				p.FreshEV++
			}
		}
		if alive {
			p.Alive++
			if h.Record.EV {
				p.AliveEV++
			}
		}
	}
	return p
}

// AdvertisedAt returns the histories of certificates alive at t.
func (c *Legacy) AdvertisedAt(t time.Time) []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*History
	for _, h := range c.order {
		if h.AliveAt(t) {
			out = append(out, h)
		}
	}
	return out
}

// LastScanAdvertisements returns the sightings belonging to the most
// recent scan — "still being advertised in the latest port 443 scan"
// (§3.1).
func (c *Legacy) LastScanAdvertisements() []*History {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.scans) == 0 {
		return nil
	}
	last := c.scans[len(c.scans)-1]
	var out []*History
	for _, h := range c.order {
		if h.Death().Equal(last) {
			out = append(out, h)
		}
	}
	return out
}

// Lifetimes returns, for each certificate, the advertised lifetime in
// days, sorted ascending — input for lifetime CDFs.
func (c *Legacy) Lifetimes() []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]float64, 0, len(c.order))
	for _, h := range c.order {
		out = append(out, h.Death().Sub(h.Birth()).Hours()/24)
	}
	sort.Float64s(out)
	return out
}

// churnSchedule generates the build-throughput fixture: weekly scans
// over a churning population where certificate i is born at scan
// i/perScan, is advertised for 1..maxLife consecutive scans and has a
// fixed host count at each. Every draw is a splitmix64 hash, so the
// schedule is the same on every call.
func churnSchedule(certs, scans, maxLife int) (times []time.Time, ads [][]Advertisement) {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	perScan := (certs + scans - 1) / scans
	recs := make([]*ca.Record, certs)
	for i := range recs {
		h := mix(uint64(i) ^ 0xc0ffee)
		notBefore := day(7*(i/perScan) - int(h>>8%14))
		recs[i] = rec(int64(i)+1, notBefore, notBefore.AddDate(1, 0, 0), h>>32%50 == 0)
		recs[i].CAName = fmt.Sprintf("CA%d", h%8)
		recs[i].InternSerial()
	}
	for s := 0; s < scans; s++ {
		var scan []Advertisement
		for i := max(0, (s-maxLife+1)*perScan); i < min(certs, (s+1)*perScan); i++ {
			birth, life := i/perScan, 1+int(mix(uint64(i))%uint64(maxLife))
			if s < birth || s >= birth+life {
				continue
			}
			h := mix(uint64(i)<<20 ^ uint64(s))
			hosts := 1 + int(h%7)
			stapled := 0
			if h>>8%5 == 0 {
				stapled = 1 + int(h>>16)%hosts
			}
			scan = append(scan, Advertisement{Record: recs[i], Hosts: hosts, StapledHosts: stapled})
		}
		times = append(times, day(7*s))
		ads = append(ads, scan)
	}
	return times, ads
}

// TestStreamingBuildKeepsPaceWithLegacy gates the streaming engine's
// build throughput at 0.7 of the in-memory Legacy engine's or better,
// on an identical scan schedule. The two sides alternate in one process
// and each keeps its best of three rounds, so host load shared by both
// cancels out.
func TestStreamingBuildKeepsPaceWithLegacy(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput ratios are not meaningful under the race detector")
	}
	const minRatio = 0.7
	times, ads := churnSchedule(60000, 40, 9)
	build := func(e interface {
		RecordScan(time.Time, []Advertisement)
		Size() int
	}) (int, time.Duration) {
		start := time.Now()
		for s := range times {
			e.RecordScan(times[s], ads[s])
		}
		return e.Size(), time.Since(start)
	}
	bestLegacy, bestStream := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		legN, legT := build(NewLegacy())
		streamN, streamT := build(New())
		if legN != streamN || legN == 0 {
			t.Fatalf("legacy built %d certs, streaming %d", legN, streamN)
		}
		bestLegacy, bestStream = min(bestLegacy, legT), min(bestStream, streamT)
	}
	ratio := bestLegacy.Seconds() / bestStream.Seconds()
	t.Logf("streaming build at %.2fx of legacy (legacy %v, streaming %v)", ratio, bestLegacy, bestStream)
	if ratio < minRatio {
		t.Errorf("streaming build runs at %.2fx of legacy, want >= %.2f", ratio, minRatio)
	}
}
