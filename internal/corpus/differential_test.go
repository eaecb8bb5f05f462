package corpus

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// TestDifferentialLegacyVsStreaming drives a random scan schedule through
// both engines and demands exact agreement on every shared fold —
// populations and lifetimes — and, certificate by certificate, on every
// field the streaming columns keep: birth, death, sighting count, the
// last sighting's host and stapled-host counts, the Figure 1 expiry flag,
// and the alive and fresh windows on a day grid. The streaming corpus is
// always resident in memory; the subtest name says so.
func TestDifferentialLegacyVsStreaming(t *testing.T) {
	t.Run("resident", differentialResident)
}

func differentialResident(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	c := New()
	leg := NewLegacy()

	const nCerts = 400
	recs := make([]*ca.Record, nCerts)
	for i := range recs {
		nb := day(rng.Intn(60) - 30)
		recs[i] = rec(int64(i+1), nb, nb.AddDate(0, 0, 30+rng.Intn(300)), rng.Intn(10) == 0)
		if rng.Intn(2) == 0 {
			recs[i].CAName = "U"
		}
	}

	for scan := 0; scan < 12; scan++ {
		at := day(scan * 7)
		var ads []Advertisement
		for _, r := range recs {
			// Certs drift in and out to create gaps, births, deaths.
			if rng.Intn(3) == 0 {
				continue
			}
			ads = append(ads, Advertisement{
				Record:       r,
				Hosts:        1 + rng.Intn(50),
				StapledHosts: rng.Intn(3),
			})
		}
		// Shuffle so first-seen ID order is not record order.
		rng.Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
		c.RecordScan(at, ads)
		leg.RecordScan(at, ads)
	}

	if c.Size() != leg.Size() || c.NumScans() != leg.NumScans() {
		t.Fatalf("size %d vs %d, scans %d vs %d", c.Size(), leg.Size(), c.NumScans(), leg.NumScans())
	}
	// Every certificate, joined to legacy by (CAName, serial magnitude).
	legByKey := make(map[string]*History)
	for _, h := range leg.Histories() {
		legByKey[h.Record.CAName+"\x00"+string(h.Record.SerialMagnitude())] = h
	}
	c.Visit(func(ct *Cert) bool {
		key := ct.CAName() + "\x00" + string(ct.Serial())
		hl, ok := legByKey[key]
		if !ok {
			t.Fatalf("cert %s/%x not in legacy, or visited twice", ct.CAName(), ct.Serial())
		}
		delete(legByKey, key)
		last := hl.Sightings[len(hl.Sightings)-1]
		if !ct.Birth().Equal(hl.Birth()) || !ct.Death().Equal(hl.Death()) {
			t.Fatalf("%x: birth/death %v/%v, legacy %v/%v", ct.Serial(), ct.Birth(), ct.Death(), hl.Birth(), hl.Death())
		}
		if ct.LastHosts() != last.Hosts || ct.LastStapledHosts() != last.StapledHosts {
			t.Fatalf("%x: last sighting %d/%d, legacy %d/%d", ct.Serial(),
				ct.LastHosts(), ct.LastStapledHosts(), last.Hosts, last.StapledHosts)
		}
		if ct.AdvertisedAfterExpiry() != hl.AdvertisedAfterExpiry() {
			t.Fatalf("%x: expiry flag %v, legacy %v", ct.Serial(), ct.AdvertisedAfterExpiry(), hl.AdvertisedAfterExpiry())
		}
		for d := -35; d < 100; d += 5 {
			if aliveAt(ct, day(d)) != hl.AliveAt(day(d)) || ct.FreshAt(day(d)) != hl.FreshAt(day(d)) {
				t.Fatalf("%x: alive/fresh at day %d %v/%v, legacy %v/%v", ct.Serial(), d,
					aliveAt(ct, day(d)), ct.FreshAt(day(d)), hl.AliveAt(day(d)), hl.FreshAt(day(d)))
			}
		}
		return true
	})
	if len(legByKey) != 0 {
		t.Fatalf("%d legacy certs never visited", len(legByKey))
	}
}

// TestIDAssignmentDeterministic pins that IDs follow first-seen ad order
// exactly — the property the workload's streaming determinism rests on.
func TestIDAssignmentDeterministic(t *testing.T) {
	c := New()
	r1 := rec(7, day(0), day(100), false)
	r2 := rec(3, day(0), day(100), false)
	c.RecordScan(day(0), []Advertisement{{Record: r1, Hosts: 1}, {Record: r2, Hosts: 1}})
	id1, ok1 := c.IDOf(r1)
	id2, ok2 := c.IDOf(r2)
	if !ok1 || !ok2 || id1 != 0 || id2 != 1 {
		t.Fatalf("ids = %d,%d (%v,%v)", id1, id2, ok1, ok2)
	}
	// Same serial under a different CA is a distinct certificate.
	r3 := rec(7, day(0), day(100), false)
	r3.CAName = "U"
	c.RecordScan(day(7), []Advertisement{{Record: r3, Hosts: 1}})
	if id3, ok := c.IDOf(r3); !ok || id3 != 2 {
		t.Fatalf("cross-CA id = %d %v", id3, ok)
	}
}
