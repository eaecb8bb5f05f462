// Package simtime provides the deterministic virtual clock and measurement
// calendar used by the simulated certificate ecosystem.
//
// The paper's measurement spans 74 (roughly) weekly full-IPv4 scans between
// October 30, 2013 and March 30, 2015, with daily CRL crawls starting
// October 2, 2014. All of those schedules are expressed here against a
// virtual clock so that an entire 17-month measurement replays in
// milliseconds and is byte-for-byte reproducible.
package simtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical dates of the measurement study (all midnight UTC).
var (
	// ScanStart is the date of the first Rapid7 port-443 scan used.
	ScanStart = Date(2013, time.October, 30)
	// ScanEnd is the date of the last scan used.
	ScanEnd = Date(2015, time.March, 30)
	// CrawlStart is the first day of the daily CRL crawl.
	CrawlStart = Date(2014, time.October, 2)
	// CrawlEnd is the last day of the daily CRL crawl.
	CrawlEnd = Date(2015, time.March, 31)
	// Heartbleed is the public disclosure date of CVE-2014-0160, which
	// triggered the mass-revocation event visible in Figure 2.
	Heartbleed = Date(2014, time.April, 7)
	// CRLSetStart is the publication date of the first CRLSet snapshot
	// in the paper's historical crawl.
	CRLSetStart = Date(2013, time.July, 18)
)

// NumScans is the number of full scans in the study.
const NumScans = 74

// Date returns midnight UTC on the given day.
func Date(year int, month time.Month, day int) time.Time {
	return time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
}

// DaysBetween returns the number of whole days from a to b. It is negative
// when b precedes a.
func DaysBetween(a, b time.Time) int {
	return int(b.Sub(a) / (24 * time.Hour))
}

// Clock is a virtual clock. The zero value is unusable; construct with
// NewClock. Clock is safe for concurrent use: simulated servers read it
// on every request while the simulation driver advances it. Now is one
// atomic load of the current instant and takes no lock; Advance and
// AdvanceTo publish a new instant under a mutex that only writers take,
// so a reader sees either the instant before a step or the one after,
// never a mixture, and never one earlier than it saw before.
type Clock struct {
	mu  sync.Mutex // serialises writers; readers never take it
	now atomic.Pointer[time.Time]
}

// NewClock returns a clock frozen at start.
func NewClock(start time.Time) *Clock {
	c := &Clock{}
	c.now.Store(&start)
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	return *c.now.Load()
}

// Advance moves the clock forward by d. It panics if d is negative, because
// time running backwards always indicates a simulation-driver bug.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: Advance(%v): negative duration", d))
	}
	c.mu.Lock()
	t := c.now.Load().Add(d)
	c.now.Store(&t)
	c.mu.Unlock()
}

// AdvanceTo moves the clock to t. It panics if t precedes the current time.
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := *c.now.Load(); t.Before(now) {
		panic(fmt.Sprintf("simtime: AdvanceTo(%v): before current time %v", t, now))
	}
	c.now.Store(&t)
}

// Schedule is an ordered list of instants at which a recurring measurement
// fires (scans, crawls, CRLSet fetches).
type Schedule []time.Time

// span returns a schedule of n instants evenly covering [start, end]; the
// first instant is start and the last is end. This matches the paper's
// "roughly weekly" scan cadence, which drifts slightly so the 74th scan
// lands on March 30, 2015.
func span(start, end time.Time, n int) Schedule {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return Schedule{start}
	}
	total := end.Sub(start)
	s := make(Schedule, n)
	for i := range s {
		s[i] = start.Add(time.Duration(int64(total) / int64(n-1) * int64(i)))
	}
	s[n-1] = end
	return s
}

// ScanSchedule returns the study's 74-scan calendar.
func ScanSchedule() Schedule { return span(ScanStart, ScanEnd, NumScans) }

// Between returns the sub-schedule of instants t with from <= t <= to.
func (s Schedule) Between(from, to time.Time) Schedule {
	var out Schedule
	for _, t := range s {
		if !t.Before(from) && !t.After(to) {
			out = append(out, t)
		}
	}
	return out
}

// MonthKey returns t's month as "YYYY-MM", the bucketing key used by the
// issuance-time analyses (Figure 4).
func MonthKey(t time.Time) string {
	return fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month()))
}

// Months returns the "YYYY-MM" keys for every month from first to last
// inclusive.
func Months(first, last time.Time) []string {
	var out []string
	y, m := first.Year(), first.Month()
	for {
		cur := time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
		if cur.After(last) {
			break
		}
		out = append(out, MonthKey(cur))
		m++
		if m > time.December {
			m = time.January
			y++
		}
	}
	return out
}
