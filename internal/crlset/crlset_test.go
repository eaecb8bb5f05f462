package crlset

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/simtime"
)

func parent(id byte) Parent {
	return Parent(sha256.Sum256([]byte{id}))
}

func TestSetBasics(t *testing.T) {
	s := NewSet(1)
	p1, p2 := parent(1), parent(2)
	s.Add(p1, big.NewInt(100))
	s.Add(p1, big.NewInt(200))
	s.Add(p1, big.NewInt(100)) // duplicate ignored
	s.Add(p2, big.NewInt(300))

	if s.NumParents() != 2 || s.NumEntries() != 3 {
		t.Fatalf("parents=%d entries=%d", s.NumParents(), s.NumEntries())
	}
	if !s.Covers(p1, big.NewInt(100)) || !s.Covers(p2, big.NewInt(300)) {
		t.Error("missing coverage")
	}
	if s.Covers(p1, big.NewInt(300)) || s.Covers(parent(9), big.NewInt(100)) {
		t.Error("phantom coverage")
	}
	if !s.HasParent(p1) || s.HasParent(parent(9)) {
		t.Error("HasParent wrong")
	}
	if got := s.Serials(p1); len(got) != 2 || got[0].Int64() != 100 {
		t.Errorf("Serials = %v", got)
	}
}

// TestSerialCanonicalization pins the documented AddSerial/CoversSerial
// semantics for degenerate encodings: entries are keyed by the serial
// *value* (serialx.Canon form), so zero-length, single-zero, and
// leading-zero encodings of the same value are one entry, on both the
// insert and the probe side, and survive a Marshal/Parse round trip.
func TestSerialCanonicalization(t *testing.T) {
	p := parent(1)
	cases := []struct {
		name   string
		stored []byte   // encoding handed to AddSerial
		hits   [][]byte // probes that must report covered
		misses [][]byte // probes that must not
	}{
		{
			name:   "leading-zero insert, canonical probe",
			stored: []byte{0x00, 0x05},
			hits:   [][]byte{{0x05}, {0x00, 0x05}, {0x00, 0x00, 0x05}},
			misses: [][]byte{{0x05, 0x00}, {}, nil},
		},
		{
			name:   "canonical insert, padded probe",
			stored: []byte{0x81, 0x02},
			hits:   [][]byte{{0x81, 0x02}, {0x00, 0x81, 0x02}},
			misses: [][]byte{{0x81}, {0x02}},
		},
		{
			name:   "zero serial in every encoding",
			stored: []byte{0x00},
			hits:   [][]byte{nil, {}, {0x00}, {0x00, 0x00}},
			misses: [][]byte{{0x01}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(1)
			s.AddSerial(p, tc.stored)
			// A differently-padded duplicate must not create a second entry.
			s.AddSerial(p, append([]byte{0x00}, tc.stored...))
			if s.NumEntries() != 1 {
				t.Fatalf("NumEntries = %d after duplicate encodings", s.NumEntries())
			}
			check := func(set *Set, label string) {
				for _, probe := range tc.hits {
					if !set.CoversSerial(p, probe) {
						t.Errorf("%s: CoversSerial(%x) = false, want true", label, probe)
					}
				}
				for _, probe := range tc.misses {
					if set.CoversSerial(p, probe) {
						t.Errorf("%s: CoversSerial(%x) = true, want false", label, probe)
					}
				}
			}
			check(s, "built")
			data, err := s.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			check(parsed, "parsed")
		})
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	s := NewSet(42)
	for i := byte(1); i <= 3; i++ {
		for j := int64(1); j <= 5; j++ {
			s.Add(parent(i), big.NewInt(int64(i)*1000+j))
		}
	}
	s.BlockedSPKIs = []Parent{parent(200), parent(201)}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sequence != 42 || got.NumParents() != 3 || got.NumEntries() != 15 {
		t.Fatalf("round trip: seq=%d parents=%d entries=%d", got.Sequence, got.NumParents(), got.NumEntries())
	}
	if len(got.BlockedSPKIs) != 2 || got.BlockedSPKIs[0] != parent(200) {
		t.Errorf("blocked SPKIs = %d", len(got.BlockedSPKIs))
	}
	for i := byte(1); i <= 3; i++ {
		for j := int64(1); j <= 5; j++ {
			if !got.Covers(parent(i), big.NewInt(int64(i)*1000+j)) {
				t.Fatalf("lost entry %d/%d", i, j)
			}
		}
	}
	if s.Size() != len(data) {
		t.Errorf("Size() = %d, marshal = %d", s.Size(), len(data))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	s := NewSet(1)
	s.Add(parent(1), big.NewInt(7))
	data, _ := s.Marshal()
	for name, b := range map[string][]byte{
		"empty":        {},
		"short header": {0xff, 0xff, 'x'},
		"trailing":     append(append([]byte{}, data...), 1),
		"truncated":    data[:len(data)-2],
		"not json":     {2, 0, '{', 'x'},
	} {
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func srcEntries(n int, reason crl.Reason) []crl.Entry {
	var out []crl.Entry
	for i := 1; i <= n; i++ {
		out = append(out, crl.Entry{Serial: big.NewInt(int64(i)).Bytes(), RevokedAt: simtime.Heartbleed, Reason: reason})
	}
	return out
}

func TestGenerateReasonFilter(t *testing.T) {
	sources := []SourceCRL{
		{Parent: parent(1), URL: "http://a/1.crl", Public: true, Entries: []crl.Entry{
			{Serial: big.NewInt(1).Bytes(), Reason: crl.ReasonKeyCompromise},
			{Serial: big.NewInt(2).Bytes(), Reason: crl.ReasonSuperseded},
			{Serial: big.NewInt(3).Bytes(), Reason: crl.ReasonAbsent},
			{Serial: big.NewInt(4).Bytes(), Reason: crl.ReasonCessationOfOperation},
		}},
	}
	set := Generate(GeneratorConfig{FilterReasons: true}, sources, 1)
	if set.NumEntries() != 2 {
		t.Fatalf("entries = %d, want 2 (eligible reasons only)", set.NumEntries())
	}
	if !set.Covers(parent(1), big.NewInt(1)) || !set.Covers(parent(1), big.NewInt(3)) {
		t.Error("eligible entries missing")
	}
	all := Generate(GeneratorConfig{}, sources, 2)
	if all.NumEntries() != 4 {
		t.Errorf("unfiltered entries = %d", all.NumEntries())
	}
}

func TestGenerateDropsOversizedCRLs(t *testing.T) {
	sources := []SourceCRL{
		{Parent: parent(1), URL: "http://big/1.crl", Public: true, Entries: srcEntries(500, crl.ReasonUnspecified)},
		{Parent: parent(2), URL: "http://small/1.crl", Public: true, Entries: srcEntries(10, crl.ReasonUnspecified)},
	}
	set := Generate(GeneratorConfig{MaxCRLEntries: 100}, sources, 1)
	if set.HasParent(parent(1)) {
		t.Error("oversized CRL not dropped")
	}
	if !set.HasParent(parent(2)) || set.NumEntries() != 10 {
		t.Errorf("small CRL missing: entries=%d", set.NumEntries())
	}
}

func TestGenerateSkipsNonPublic(t *testing.T) {
	sources := []SourceCRL{
		{Parent: parent(1), URL: "http://private/1.crl", Public: false, Entries: srcEntries(5, crl.ReasonAbsent)},
	}
	set := Generate(GeneratorConfig{}, sources, 1)
	if set.NumEntries() != 0 {
		t.Error("non-public CRL included")
	}
}

func TestGenerateRespectsSizeCap(t *testing.T) {
	// Each entry is ~2-3 bytes serial + 1 length byte; parent block 36
	// bytes. With a tiny cap only some parents fit.
	var sources []SourceCRL
	for i := byte(1); i <= 20; i++ {
		sources = append(sources, SourceCRL{
			Parent: parent(i), URL: "http://x", Public: true,
			Entries: srcEntries(50, crl.ReasonAbsent),
		})
	}
	set := Generate(GeneratorConfig{MaxBytes: 1000}, sources, 1)
	if set.Size() > 1000 {
		t.Errorf("size %d exceeds cap", set.Size())
	}
	if set.NumParents() == 0 || set.NumParents() >= 20 {
		t.Errorf("parents admitted = %d, want partial admission", set.NumParents())
	}
	// Determinism: same inputs, same output bytes.
	set2 := Generate(GeneratorConfig{MaxBytes: 1000}, sources, 1)
	b1, _ := set.Marshal()
	b2, _ := set2.Marshal()
	if string(b1) != string(b2) {
		t.Error("generation not deterministic")
	}
}

func TestAnalyzeCoverage(t *testing.T) {
	sources := []SourceCRL{
		{Parent: parent(1), URL: "http://a", Public: true, Entries: []crl.Entry{
			{Serial: big.NewInt(1).Bytes(), Reason: crl.ReasonKeyCompromise},
			{Serial: big.NewInt(2).Bytes(), Reason: crl.ReasonSuperseded},
		}},
		{Parent: parent(2), URL: "http://b", Public: true, Entries: srcEntries(8, crl.ReasonSuperseded)},
	}
	set := Generate(GeneratorConfig{FilterReasons: true}, sources, 1)
	cov := AnalyzeCoverage(set, sources)
	if cov.TotalRevocations != 10 || cov.CoveredRevocations != 1 {
		t.Fatalf("coverage = %+v", cov)
	}
	if cov.TotalCRLs != 2 || cov.CoveredCRLs != 1 {
		t.Errorf("CRL coverage = %d/%d", cov.CoveredCRLs, cov.TotalCRLs)
	}
	if got := cov.CoverageFraction(); got != 0.1 {
		t.Errorf("fraction = %v", got)
	}
	// The covered CRL has 1 of 2 entries covered overall, but 1 of 1
	// eligible entries — the Figure 7 distinction.
	if len(cov.PerCoveredCRLAll) != 1 || cov.PerCoveredCRLAll[0] != 0.5 {
		t.Errorf("all fraction = %v", cov.PerCoveredCRLAll)
	}
	if len(cov.PerCoveredCRLEligible) != 1 || cov.PerCoveredCRLEligible[0] != 1.0 {
		t.Errorf("eligible fraction = %v", cov.PerCoveredCRLEligible)
	}
	if (Coverage{}).CoverageFraction() != 0 {
		t.Error("empty coverage fraction")
	}
}

func TestTimelineDynamics(t *testing.T) {
	tl := NewTimeline()
	d := simtime.Date(2014, time.October, 1)
	p := parent(1)

	s1 := NewSet(1)
	s1.Add(p, big.NewInt(1))
	s2 := NewSet(2)
	s2.Add(p, big.NewInt(1))
	s2.Add(p, big.NewInt(2))
	s3 := NewSet(3)
	s3.Add(p, big.NewInt(2)) // serial 1 removed

	tl.Add(d, s1)
	tl.Add(d.AddDate(0, 0, 1), s2)
	tl.Add(d.AddDate(0, 0, 2), s3)

	if tl.Len() != 3 {
		t.Fatalf("len = %d", tl.Len())
	}
	counts := tl.EntryCounts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("entry counts = %v", counts)
	}
	lifetimes := tl.Lifetimes()
	two, ok := lifetimes.Lookup(p, big.NewInt(2))
	if !ok || !two.First.Equal(d.AddDate(0, 0, 1)) {
		t.Errorf("first appearance = %v, %v", two.First, ok)
	}
	if _, ok := lifetimes.Lookup(p, big.NewInt(99)); ok {
		t.Error("phantom first appearance")
	}
	one, ok := lifetimes.Lookup(p, big.NewInt(1))
	if !ok || !one.Removed.Equal(d.AddDate(0, 0, 2)) {
		t.Errorf("removal = %v, %v", one.Removed, ok)
	}
	if !two.Removed.IsZero() {
		t.Error("still-present entry reported removed")
	}
	adds := tl.Additions()
	if len(adds) != 2 || adds[0] != 1 || adds[1] != 0 {
		t.Errorf("additions = %v", adds)
	}
	day0, set0 := tl.At(0)
	if !day0.Equal(d) || set0 != s1 {
		t.Error("At(0)")
	}
	if len(tl.Days()) != 3 {
		t.Error("Days")
	}
}

// scanFirstAppearance and scanRemovalTime are the per-serial scans over
// all the days that Lifetimes replaced, kept as its oracle.
func scanFirstAppearance(tl *Timeline, p Parent, serial *big.Int) (time.Time, bool) {
	for i, s := range tl.sets {
		if s.Covers(p, serial) {
			return tl.days[i], true
		}
	}
	return time.Time{}, false
}

// scanRemovalTime returns the first day on which (parent, serial) was
// absent after having been present; ok is false if it never appeared or
// was still present on the final day.
func scanRemovalTime(tl *Timeline, p Parent, serial *big.Int) (time.Time, bool) {
	appeared := false
	for i, s := range tl.sets {
		covered := s.Covers(p, serial)
		if covered {
			appeared = true
			continue
		}
		if appeared {
			return tl.days[i], true
		}
	}
	return time.Time{}, false
}

// TestLifetimesMatchScans: the one-pass index answers what the per-serial
// scans answer, on a timeline with gaps between days, an outage (the same
// set standing for several days), entries that leave and come back,
// entries present from the first day or to the last, a parent that
// disappears whole, and an empty snapshot.
func TestLifetimesMatchScans(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tl := NewTimeline()
	day := simtime.Date(2014, time.October, 1)
	const serials = 40
	parents := []Parent{parent(1), parent(2), parent(3)}
	var prev *Set
	for i := 0; i < 60; i++ {
		day = day.AddDate(0, 0, 1+rng.Intn(3)) // gaps
		if prev != nil && i >= 20 && i < 26 {
			tl.Add(day, prev) // generator outage: the last set stays current
			continue
		}
		s := NewSet(i)
		for pi, p := range parents {
			if pi == 2 && i >= 30 && i < 45 {
				continue // the parent is dropped whole, then returns
			}
			for v := int64(1); v <= serials; v++ {
				// Each serial is covered in a window of its own, some of
				// them twice; serial 1 always, serial 2 never.
				from, to := int(v), int(v)+10+pi
				again := v%5 == 0 && i >= to+8
				if v == 1 || (v != 2 && ((i >= from && i < to) || again)) {
					s.Add(p, big.NewInt(v*1000+int64(pi)))
				}
			}
		}
		if i == 50 {
			s = NewSet(i) // an empty snapshot
		}
		tl.Add(day, s)
		prev = s
	}
	lifetimes := tl.Lifetimes()
	covered, removed := 0, 0
	for pi, p := range append(parents, parent(9)) {
		for v := int64(0); v <= serials+1; v++ {
			serial := big.NewInt(v*1000 + int64(pi))
			first, appeared := scanFirstAppearance(tl, p, serial)
			gone, wasRemoved := scanRemovalTime(tl, p, serial)
			life, ok := lifetimes.Lookup(p, serial)
			if ok != appeared || !life.First.Equal(first) {
				t.Fatalf("parent %d serial %v: first appearance %v/%t, scan says %v/%t", pi, serial, life.First, ok, first, appeared)
			}
			if life.Removed.IsZero() == wasRemoved || !life.Removed.Equal(gone) {
				t.Fatalf("parent %d serial %v: removal %v, scan says %v/%t", pi, serial, life.Removed, gone, wasRemoved)
			}
			if appeared {
				covered++
			}
			if wasRemoved {
				removed++
			}
		}
	}
	if covered < 100 || removed < 90 || removed == covered {
		t.Errorf("fixture covers %d entries and removes %d: too few to mean anything", covered, removed)
	}
}

func TestTimelineOrderEnforced(t *testing.T) {
	tl := NewTimeline()
	d := simtime.Date(2014, time.October, 2)
	tl.Add(d, NewSet(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order day accepted")
		}
	}()
	tl.Add(d.AddDate(0, 0, -1), NewSet(2))
}
