package corpus

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/simtime"
)

func rec(serial int64, notBefore, notAfter time.Time, ev bool) *ca.Record {
	return &ca.Record{
		CAName:    "T",
		Serial:    big.NewInt(serial),
		NotBefore: notBefore,
		NotAfter:  notAfter,
		EV:        ev,
	}
}

func day(n int) time.Time {
	return simtime.Date(2014, time.January, 1).AddDate(0, 0, n)
}

func TestLifetimesAndTimelines(t *testing.T) {
	c := New()
	r1 := rec(1, day(0), day(100), false) // seen scans 0..3
	r2 := rec(2, day(0), day(10), false)  // expired but still advertised later
	c.RecordScan(day(0), []Advertisement{{Record: r1, Hosts: 3}, {Record: r2, Hosts: 1}})
	c.RecordScan(day(7), []Advertisement{{Record: r1, Hosts: 2}})
	c.RecordScan(day(14), []Advertisement{{Record: r1, Hosts: 2}, {Record: r2, Hosts: 1}})
	c.RecordScan(day(21), []Advertisement{{Record: r1, Hosts: 1}})

	if c.NumScans() != 4 || c.Size() != 2 {
		t.Fatalf("scans=%d size=%d", c.NumScans(), c.Size())
	}
	r1ID, _ := c.IDOf(r1)
	var saw int
	c.Visit(func(ct *Cert) bool {
		saw++
		if ct.ID() == r1ID {
			if !ct.Birth().Equal(day(0)) || !ct.Death().Equal(day(21)) {
				t.Errorf("r1 lifetime [%v, %v]", ct.Birth(), ct.Death())
			}
			if ct.Sightings() != 4 || ct.LastHosts() != 1 {
				t.Errorf("r1 sightings = %d, last hosts = %d", ct.Sightings(), ct.LastHosts())
			}
			if ct.AdvertisedAfterExpiry() {
				t.Error("r1 is within validity")
			}
			return true
		}
		if !ct.Death().Equal(day(14)) {
			t.Errorf("r2 death %v", ct.Death())
		}
		// r2 was missed at day 7 but is still alive there.
		if !ct.AliveAt(day(7)) {
			t.Error("gap in sightings should still be alive")
		}
		if ct.AliveAt(day(21)) {
			t.Error("after death should not be alive")
		}
		// r2 expired at day 10 but advertised at day 14.
		if !ct.AdvertisedAfterExpiry() {
			t.Error("r2 should be the atypical certificate of Figure 1")
		}
		return true
	})
	if saw != 2 {
		t.Fatalf("visited %d certs", saw)
	}
}

// TestEmptyHistoryGuards pins the documented invariant: a hand-built
// History with no Sightings is "never observed" — zero Birth/Death,
// alive at no instant, not advertised after expiry — rather than an
// index-out-of-range panic.
func TestEmptyHistoryGuards(t *testing.T) {
	h := &History{Record: rec(1, day(0), day(10), false)}
	if !h.Birth().IsZero() || !h.Death().IsZero() {
		t.Errorf("empty history birth/death = %v/%v", h.Birth(), h.Death())
	}
	if h.AliveAt(day(0)) {
		t.Error("empty history should be alive at no instant")
	}
	if h.AdvertisedAfterExpiry() {
		t.Error("empty history cannot be advertised after expiry")
	}
}

func TestCursorTimelines(t *testing.T) {
	c := New()
	r1 := rec(1, day(0), day(100), false)
	r2 := rec(2, day(0), day(10), false)
	c.RecordScan(day(0), []Advertisement{{Record: r1, Hosts: 3}, {Record: r2, Hosts: 1}})
	c.RecordScan(day(7), []Advertisement{{Record: r1, Hosts: 2}})
	c.RecordScan(day(14), []Advertisement{{Record: r1, Hosts: 2, StapledHosts: 1}, {Record: r2, Hosts: 1}})

	var saw int
	c.Visit(func(ct *Cert) bool {
		saw++
		switch ct.ID() {
		case 0:
			if !ct.Birth().Equal(day(0)) || !ct.Death().Equal(day(14)) || ct.Sightings() != 3 {
				t.Errorf("r1 cursor birth=%v death=%v n=%d", ct.Birth(), ct.Death(), ct.Sightings())
			}
			if ct.LastHosts() != 2 || ct.LastStapledHosts() != 1 {
				t.Errorf("r1 last sighting %d/%d", ct.LastHosts(), ct.LastStapledHosts())
			}
			if ct.AdvertisedAfterExpiry() {
				t.Error("r1 is within validity")
			}
		case 1:
			// Gap at day 7: still alive between sightings.
			if !ct.AliveAt(day(7)) || ct.AliveAt(day(21)) {
				t.Error("r2 cursor alive window wrong")
			}
			if !ct.AdvertisedAfterExpiry() {
				t.Error("r2 should be advertised after expiry")
			}
			if ct.CAName() != "T" || len(ct.Serial()) == 0 {
				t.Errorf("r2 identity %q/%x", ct.CAName(), ct.Serial())
			}
		}
		return true
	})
	if saw != 2 {
		t.Fatalf("visited %d certs", saw)
	}

	alive := 0
	c.IterAlive(day(10), func(ct *Cert) bool { alive++; return true })
	if alive != 2 {
		t.Errorf("alive at day 10 = %d", alive)
	}
}

func TestPopulationAt(t *testing.T) {
	c := New()
	dv := rec(1, day(0), day(30), false)
	ev := rec(2, day(0), day(30), true)
	expired := rec(3, day(-60), day(-30), false)
	c.RecordScan(day(0), []Advertisement{{Record: dv, Hosts: 1}, {Record: ev, Hosts: 1}, {Record: expired, Hosts: 1}})
	c.RecordScan(day(7), []Advertisement{{Record: dv, Hosts: 1}, {Record: ev, Hosts: 1}})

	p := c.PopulationAt(day(0))
	if p.Fresh != 2 || p.Alive != 3 || p.FreshEV != 1 || p.AliveEV != 1 {
		t.Errorf("population = %+v", p)
	}
	// After death of expired cert.
	p = c.PopulationAt(day(7))
	if p.Alive != 2 {
		t.Errorf("alive at day 7 = %d", p.Alive)
	}
}

func TestLifetimes(t *testing.T) {
	c := New()
	r1 := rec(1, day(0), day(100), false)
	c.RecordScan(day(0), []Advertisement{{Record: r1, Hosts: 1}})
	c.RecordScan(day(14), []Advertisement{{Record: r1, Hosts: 1}})
	lives := c.Lifetimes()
	if len(lives) != 1 || lives[0] != 14 {
		t.Errorf("lifetimes = %v", lives)
	}
}

func TestOutOfOrderScansPanic(t *testing.T) {
	c := New()
	c.RecordScan(day(7), nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order scan accepted")
		}
	}()
	c.RecordScan(day(0), nil)
}

func TestEmptyCorpus(t *testing.T) {
	c := New()
	if p := c.PopulationAt(day(0)); p.Fresh != 0 || p.Alive != 0 {
		t.Errorf("empty population = %+v", p)
	}
	if len(c.Scans()) != 0 || c.Size() != 0 {
		t.Error("empty corpus accessors")
	}
	c.Visit(func(*Cert) bool { t.Error("unexpected cert"); return false })
	c.IterAlive(day(0), func(*Cert) bool { t.Error("unexpected alive cert"); return false })
}

func TestLegacyAccessors(t *testing.T) {
	c := NewLegacy()
	r1 := rec(1, day(0), day(100), false)
	r2 := rec(2, day(0), day(100), false)
	c.RecordScan(day(0), []Advertisement{{Record: r1, Hosts: 1}, {Record: r2, Hosts: 1}})
	c.RecordScan(day(7), []Advertisement{{Record: r1, Hosts: 1}})

	if got := len(c.AdvertisedAt(day(0))); got != 2 {
		t.Errorf("advertised at first scan = %d", got)
	}
	// r2's alive window is the single instant day(0); only r1 spans day 3.
	if got := len(c.AdvertisedAt(day(3))); got != 1 {
		t.Errorf("advertised mid-window = %d", got)
	}
	last := c.LastScanAdvertisements()
	if len(last) != 1 || last[0].Record != r1 {
		t.Errorf("last scan certs = %d", len(last))
	}
	if c.NumScans() != 2 || c.Size() != 2 || len(c.Histories()) != 2 {
		t.Error("legacy accessors")
	}
}
