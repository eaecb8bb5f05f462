package crl

// ParseFrom must be Parse: whatever the hint, the decoded CRL is the one
// Parse(raw) returns, field for field, with nothing left pointing into
// the hint's buffer. This file generates chains of CRL generations the way
// a CA's list evolves (and the ways it should not), decodes each with the
// previous generation's result as the hint, and compares against Parse.

import (
	"bytes"
	"crypto/ecdsa"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/der"
	"repro/internal/x509x"
)

// rawEntry is one revoked-certificate encoding, built by hand so the
// tests can emit what Create refuses to (negative serials).
func rawEntry(serial *big.Int, at time.Time, reason Reason) []byte {
	parts := [][]byte{der.Integer(serial), der.Time(at)}
	if reason != ReasonAbsent {
		parts = append(parts, genericReasonExt(reason))
	}
	return der.Sequence(parts...)
}

// signList signs the concatenation of entries as one CRL.
func signList(t testing.TB, issuer *x509x.Certificate, key *ecdsa.PrivateKey, number int64, entries [][]byte) []byte {
	t.Helper()
	raw, err := CreateEncoded(&Template{
		ThisUpdate: thisUpdate.Add(time.Duration(number) * time.Hour),
		NextUpdate: nextUpdate.Add(time.Duration(number) * time.Hour),
		Number:     big.NewInt(number),
	}, bytes.Join(entries, nil), issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// entryGen draws entries of every shape the decoder distinguishes.
type entryGen struct {
	rng  *rand.Rand
	next int64
}

func (g *entryGen) entry() []byte {
	g.next++
	serial := big.NewInt(g.next)
	switch g.rng.Intn(8) {
	case 0: // high bit set: sign-padded in DER
		serial = new(big.Int).Add(big.NewInt(0x80), serial.Lsh(serial, 8))
	case 1: // the 49-digit serials some CAs use
		serial = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 159), serial)
	case 2: // RFC-violating negative serial
		serial.Neg(serial)
	}
	at := thisUpdate.Add(-time.Duration(g.rng.Intn(5000)) * time.Hour)
	if g.rng.Intn(16) == 0 {
		at = time.Date(2055, 3, 1, 12, 30, 45, 0, time.UTC) // GeneralizedTime
	}
	reasons := []Reason{ReasonAbsent, ReasonAbsent, ReasonUnspecified, ReasonKeyCompromise,
		ReasonSuperseded, ReasonCessationOfOperation, Reason(42)}
	return rawEntry(serial, at, reasons[g.rng.Intn(len(reasons))])
}

func (g *entryGen) entries(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.entry()
	}
	return out
}

// sameDecode fails unless got is what Parse produced for the same raw:
// every exported field equal, every slice field the identical sub-slice of
// raw, and no entry serial inside avoid (the hint's buffer).
func sameDecode(t *testing.T, want, got *CRL, avoid []byte) {
	t.Helper()
	sameSlice := func(name string, a, b []byte) {
		t.Helper()
		if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
			t.Fatalf("%s: not the same sub-slice of raw (%d vs %d bytes)", name, len(a), len(b))
		}
	}
	sameSlice("Raw", want.Raw, got.Raw)
	sameSlice("RawTBS", want.RawTBS, got.RawTBS)
	sameSlice("RawIssuer", want.RawIssuer, got.RawIssuer)
	sameSlice("Signature", want.Signature, got.Signature)
	sameSlice("entriesDER", want.entriesDER, got.entriesDER)
	if want.Issuer != got.Issuer || !want.SignatureAlgorithm.Equal(got.SignatureAlgorithm) {
		t.Fatalf("issuer/algorithm: want %v %v, got %v %v", want.Issuer, want.SignatureAlgorithm, got.Issuer, got.SignatureAlgorithm)
	}
	if !want.ThisUpdate.Equal(got.ThisUpdate) || !want.NextUpdate.Equal(got.NextUpdate) {
		t.Fatalf("validity: want [%v %v], got [%v %v]", want.ThisUpdate, want.NextUpdate, got.ThisUpdate, got.NextUpdate)
	}
	if (want.Number == nil) != (got.Number == nil) || (want.Number != nil && want.Number.Cmp(got.Number) != 0) {
		t.Fatalf("number: want %v, got %v", want.Number, got.Number)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Fatalf("entries: want %d, got %d", len(want.Entries), len(got.Entries))
	}
	for i, we := range want.Entries {
		ge := got.Entries[i]
		if !bytes.Equal(we.Serial, ge.Serial) || !we.RevokedAt.Equal(ge.RevokedAt) || we.Reason != ge.Reason {
			t.Fatalf("entry %d: want %x %v %v, got %x %v %v", i, we.Serial, we.RevokedAt, we.Reason, ge.Serial, ge.RevokedAt, ge.Reason)
		}
		if len(ge.Serial) == 0 || &ge.Serial[0] == &we.Serial[0] {
			continue // the very bytes Parse points at
		}
		// Otherwise Parse allocated the magnitude (a negative serial),
		// and so must the hinted decode have: not raw's bytes for one
		// and not the hint's for the other.
		if aliases(want.Raw, we.Serial) {
			t.Fatalf("entry %d: Parse's serial aliases raw, the hinted decode's does not", i)
		}
		if aliases(avoid, ge.Serial) {
			t.Fatalf("entry %d: serial aliases the hint's buffer", i)
		}
	}
}

// aliases reports whether s starts on one of buf's bytes.
func aliases(buf, s []byte) bool {
	for i := range buf {
		if &buf[i] == &s[0] {
			return true
		}
	}
	return false
}

// fromEqualsParse decodes raw with and without the hint and requires the
// same outcome; it returns the hinted result (nil when both reject).
func fromEqualsParse(t *testing.T, raw []byte, prev *CRL) (*CRL, int) {
	t.Helper()
	want, werr := Parse(raw)
	got, reused, gerr := ParseFrom(raw, prev)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("accept/reject mismatch: Parse err %v, ParseFrom err %v", werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("different failures: Parse %v, ParseFrom %v", werr, gerr)
		}
		return nil, 0
	}
	var avoid []byte
	if prev != nil {
		avoid = prev.Raw
	}
	sameDecode(t, want, got, avoid)
	if reused < 0 || reused > len(got.Entries) {
		t.Fatalf("reused %d of %d entries", reused, len(got.Entries))
	}
	return got, reused
}

// TestParseFromEqualsParseOnChains is the differential property: chains
// of generations with appends, drops anywhere, re-signs with no change,
// resets, an entry rewritten in place, reordering, a hint from another
// issuer and mutated tails, each generation decoded from the previous
// hinted result so reuse of reused entries is covered too.
func TestParseFromEqualsParseOnChains(t *testing.T) {
	issuer, key := newCA(t)
	otherIssuer, otherKey := newCA(t)
	entries, reusedTotal := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &entryGen{rng: rng}
		list := g.entries(rng.Intn(40))
		var prev *CRL
		for number := int64(1); number <= 40; number++ {
			signer, signKey := issuer, key
			switch op := rng.Intn(10); op {
			case 0, 1, 2: // append
				list = append(list, g.entries(1+rng.Intn(6))...)
			case 3, 4: // drop anywhere, then append
				kept := list[:0:0]
				for _, e := range list {
					if rng.Intn(4) != 0 {
						kept = append(kept, e)
					}
				}
				list = append(kept, g.entries(rng.Intn(3))...)
			case 5: // re-sign, no change
			case 6: // reset: nothing in common
				list = g.entries(rng.Intn(30))
			case 7: // one entry rewritten in place
				if len(list) > 0 {
					list = append([][]byte(nil), list...)
					list[rng.Intn(len(list))] = g.entry()
				}
			case 8: // same entries, other order
				list = append([][]byte(nil), list...)
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			case 9: // the next hint comes from a different issuer
				signer, signKey = otherIssuer, otherKey
			}
			raw := signList(t, signer, signKey, number, list)
			if got, reused := fromEqualsParse(t, raw, prev); got != nil {
				entries += len(got.Entries)
				reusedTotal += reused
				// The result must stand on its own buffer: wreck the
				// hint's and compare again.
				if prev != nil {
					for i := range prev.Raw {
						prev.Raw[i] = 0xAA
					}
					want, _ := Parse(raw)
					sameDecode(t, want, got, nil)
				}
				prev = got
			}
			// Mutated tails: flips in the last entries and the
			// signature, and truncations. Most are rejected; all must
			// be rejected or accepted alike.
			for k := 0; k < 6; k++ {
				mut := append([]byte(nil), raw...)
				for flips := 1 + rng.Intn(3); flips > 0; flips-- {
					mut[len(mut)-1-rng.Intn(min(len(mut), 200))] ^= byte(1 << rng.Intn(8))
				}
				if rng.Intn(4) == 0 {
					mut = mut[:len(mut)-rng.Intn(min(len(mut), 50))]
				}
				fromEqualsParse(t, mut, prev)
			}
		}
	}
	if reusedTotal*2 < entries {
		t.Errorf("chains reused %d of %d entries: the generator no longer exercises reuse", reusedTotal, entries)
	}
}

// TestParseFromReuseCounts pins what is reused and what is decoded for
// the changes a CA makes to a list between signings.
func TestParseFromReuseCounts(t *testing.T) {
	issuer, key := newCA(t)
	g := &entryGen{rng: rand.New(rand.NewSource(3))}
	base := g.entries(100)
	decode := func(number int64, list [][]byte, prev *CRL) (*CRL, decodeStats) {
		t.Helper()
		c, st, err := decode(signList(t, issuer, key, number, list), prev)
		if err != nil {
			t.Fatal(err)
		}
		return c, st
	}
	first, st := decode(1, base, nil)
	if st.reused != 0 || st.compares != 0 {
		t.Fatalf("no hint: %+v", st)
	}

	appended := append(append([][]byte(nil), base...), g.entries(7)...)
	second, st := decode(2, appended, first)
	if st.reused != 100 || len(second.Entries)-st.reused != 7 {
		t.Fatalf("append of 7: reused %d, decoded %d", st.reused, len(second.Entries)-st.reused)
	}

	// Drops at the head, in the middle and at the tail of the old list,
	// plus appends: everything kept is reused.
	var kept [][]byte
	for i, e := range appended {
		if i == 0 || i == 1 || i == 50 || i == 77 || i == 106 {
			continue
		}
		kept = append(kept, e)
	}
	kept = append(kept, g.entries(3)...)
	third, st := decode(3, kept, second)
	if st.reused != 102 || len(third.Entries)-st.reused != 3 {
		t.Fatalf("5 drops + 3 appends: reused %d, decoded %d", st.reused, len(third.Entries)-st.reused)
	}

	if _, st = decode(4, kept, third); st.reused != 105 {
		t.Fatalf("re-sign with no change: reused %d of 105", st.reused)
	}
	if _, st = decode(5, g.entries(50), third); st.reused != 0 {
		t.Fatalf("reset: reused %d", st.reused)
	}
	if c, st := decode(6, nil, third); st.reused != 0 || len(c.Entries) != 0 {
		t.Fatalf("emptied list: reused %d, %d entries", st.reused, len(c.Entries))
	}
	// An entry the hint does not hold ends reuse for the rest of the
	// list: correct, just not fast.
	rewritten := append([][]byte(nil), kept...)
	rewritten[40] = g.entry()
	if _, st = decode(7, rewritten, third); st.reused != 40 {
		t.Fatalf("entry 40 rewritten: reused %d, want the 40 before it", st.reused)
	}
}

// TestParseFromWalkIsLinear: on pairs of lists built to defeat the
// matching, the decoder still compares each hint entry at most once.
func TestParseFromWalkIsLinear(t *testing.T) {
	issuer, key := newCA(t)
	const n = 2000
	at := thisUpdate.Add(-time.Hour)
	old := make([][]byte, n)
	lastByteOff := make([][]byte, n)
	for i := range old {
		serial := big.NewInt(int64(1_000_000 + i))
		old[i] = rawEntry(serial, at, ReasonKeyCompromise)
		// Same length, same bytes but the very last: every comparison
		// against it runs the full entry before it fails.
		lastByteOff[i] = rawEntry(serial, at, ReasonCACompromise)
	}
	reversed := make([][]byte, n)
	alternating := make([][]byte, n)
	for i := range old {
		reversed[i] = old[n-1-i]
		alternating[i] = old[i]
		if i%2 == 1 {
			alternating[i] = lastByteOff[i]
		}
	}
	hint, err := Parse(signList(t, issuer, key, 1, old))
	if err != nil {
		t.Fatal(err)
	}
	for name, list := range map[string][][]byte{
		"last byte differs": lastByteOff,
		"reversed":          reversed,
		"alternating":       alternating,
		"doubled":           append(append([][]byte(nil), old...), old...),
	} {
		raw := signList(t, issuer, key, 2, list)
		got, st, err := decode(raw, hint)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.compares > n {
			t.Errorf("%s: %d comparisons against a hint of %d entries", name, st.compares, n)
		}
		want, _ := Parse(raw)
		sameDecode(t, want, got, hint.Raw)
	}
}

// FuzzParseCRLFrom is differential in both arguments: whatever bytes the
// hint was parsed from and whatever bytes are being decoded, ParseFrom
// and Parse agree.
func FuzzParseCRLFrom(f *testing.F) {
	issuer, key := newCA(f)
	g := &entryGen{rng: rand.New(rand.NewSource(11))}
	a := g.entries(12)
	b := append(append([][]byte(nil), a[1:5]...), a[7:]...)
	b = append(b, g.entries(3)...)
	rawA := signList(f, issuer, key, 1, a)
	rawB := signList(f, issuer, key, 2, b)
	f.Add([]byte{}, []byte{})
	f.Add(rawA, rawB)
	f.Add(rawB, rawA)
	f.Add(rawA, rawA)
	f.Add([]byte{0x30, 0x00}, rawB)
	f.Fuzz(func(t *testing.T, hintRaw, raw []byte) {
		prev, _ := Parse(hintRaw) // nil when the hint's bytes are no CRL
		fromEqualsParse(t, raw, prev)
	})
}

// BenchmarkParseChangedList is the crawler's daily case on its largest
// list: 5,000 entries of which the last 30 are new since the hint.
// "full" decodes every entry, "hinted" the 30.
func BenchmarkParseChangedList(b *testing.B) {
	issuer, key := newCA(b)
	list := make([][]byte, 5000)
	for i := range list {
		reason := []Reason{ReasonAbsent, ReasonKeyCompromise, ReasonUnspecified}[i%3]
		list[i] = rawEntry(big.NewInt(int64(1)<<60+int64(i)), thisUpdate.Add(-time.Duration(i)*time.Hour), reason)
	}
	hint, err := Parse(signList(b, issuer, key, 1, list[:4970]))
	if err != nil {
		b.Fatal(err)
	}
	raw := signList(b, issuer, key, 2, list)
	for _, bc := range []struct {
		name string
		prev *CRL
	}{{"full", nil}, {"hinted", hint}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ParseFrom(raw, bc.prev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
