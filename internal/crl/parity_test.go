package crl

// The streaming parser and the incremental encoder must be perfect
// stand-ins for the pre-streaming implementations: same accept/reject
// set, same parsed entries, byte-identical DER. This file carries a
// self-contained copy of the legacy big.Int-based parser and encoder
// (including the legacy der time/integer decoding it relied on) as the
// oracle, and differential tests over a generated corpus, mutations, and
// a Heartbleed-scale list.

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/der"
	"repro/internal/x509x"
)

// --- legacy oracle -------------------------------------------------------

type legacyEntry struct {
	Serial    *big.Int
	RevokedAt time.Time
	Reason    Reason
}

type legacyCRL struct {
	RawTBS     []byte
	Issuer     x509x.Name
	ThisUpdate time.Time
	NextUpdate time.Time
	Entries    []legacyEntry
	Number     *big.Int
}

func legacyIntContent(c []byte) (*big.Int, error) {
	if len(c) == 0 {
		return nil, errors.New("legacy: empty integer")
	}
	if len(c) > 1 {
		if c[0] == 0 && c[1]&0x80 == 0 {
			return nil, errors.New("legacy: non-minimal integer")
		}
		if c[0] == 0xff && c[1]&0x80 != 0 {
			return nil, errors.New("legacy: non-minimal integer")
		}
	}
	out := new(big.Int).SetBytes(c)
	if c[0]&0x80 != 0 {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(len(c)*8))
		out.Sub(out, mod)
	}
	return out, nil
}

func legacyInteger(v der.Value) (*big.Int, error) {
	if v.Class != der.ClassUniversal || v.Tag != der.TagInteger || v.Constructed {
		return nil, errors.New("legacy: not a primitive INTEGER")
	}
	return legacyIntContent(v.Content)
}

func legacyInt64(v der.Value) (int64, error) {
	i, err := legacyInteger(v)
	if err != nil {
		return 0, err
	}
	if !i.IsInt64() {
		return 0, errors.New("legacy: integer out of int64 range")
	}
	return i.Int64(), nil
}

func legacyEnumerated(v der.Value) (int64, error) {
	if v.Class != der.ClassUniversal || v.Tag != der.TagEnumerated || v.Constructed {
		return 0, errors.New("legacy: not a primitive ENUMERATED")
	}
	i, err := legacyIntContent(v.Content)
	if err != nil {
		return 0, err
	}
	if !i.IsInt64() {
		return 0, errors.New("legacy: enumerated out of int64 range")
	}
	return i.Int64(), nil
}

func legacyTime(v der.Value) (time.Time, error) {
	if v.Class != der.ClassUniversal || v.Constructed {
		return time.Time{}, errors.New("legacy: not a time type")
	}
	s := string(v.Content)
	switch v.Tag {
	case der.TagUTCTime:
		t, err := time.Parse("060102150405Z", s)
		if err != nil {
			return time.Time{}, err
		}
		if t.Year() >= 2050 {
			t = t.AddDate(-100, 0, 0)
		}
		return t, nil
	case der.TagGeneralizedTime:
		t, err := time.Parse("20060102150405Z", s)
		if err != nil {
			return time.Time{}, err
		}
		return t, nil
	default:
		return time.Time{}, errors.New("legacy: tag is not a time type")
	}
}

func legacyEncodeEntry(e legacyEntry) ([]byte, error) {
	if e.Serial == nil || e.Serial.Sign() <= 0 {
		return nil, errors.New("legacy: entry needs a positive serial")
	}
	parts := [][]byte{der.Integer(e.Serial), der.Time(e.RevokedAt)}
	if e.Reason != ReasonAbsent {
		reasonExt := der.Sequence(
			der.EncodeOID(x509x.OIDExtCRLReason),
			der.OctetString(der.Enumerated(int64(e.Reason))),
		)
		parts = append(parts, der.Sequence(reasonExt))
	}
	return der.Sequence(parts...), nil
}

// legacyTBS rebuilds the tbsCertList exactly as the pre-streaming Create
// did (one-shot der.Sequence over materialized parts).
func legacyTBS(tmpl *Template, issuer *x509x.Certificate, entries []legacyEntry) ([]byte, error) {
	tbsParts := [][]byte{
		der.Int(1),
		der.Sequence(der.EncodeOID(x509x.OIDSignatureECDSAWithSHA256)),
		issuer.RawSubject,
		der.Time(tmpl.ThisUpdate),
	}
	if !tmpl.NextUpdate.IsZero() {
		tbsParts = append(tbsParts, der.Time(tmpl.NextUpdate))
	}
	if len(entries) > 0 {
		enc := make([][]byte, len(entries))
		for i, e := range entries {
			b, err := legacyEncodeEntry(e)
			if err != nil {
				return nil, err
			}
			enc[i] = b
		}
		tbsParts = append(tbsParts, der.Sequence(enc...))
	}
	if tmpl.Number != nil {
		numExt := der.Sequence(
			der.EncodeOID(x509x.OIDExtCRLNumber),
			der.OctetString(der.Integer(tmpl.Number)),
		)
		tbsParts = append(tbsParts, der.Explicit(0, der.Sequence(numExt)))
	}
	return der.Sequence(tbsParts...), nil
}

func legacyParseAlgID(v der.Value) (der.OID, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 1 {
		return nil, errors.New("legacy: AlgorithmIdentifier")
	}
	return fields[0].OID()
}

func legacyParseExtension(v der.Value) (oid der.OID, critical bool, value []byte, err error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 2 || len(fields) > 3 {
		return nil, false, nil, errors.New("legacy: extension")
	}
	if oid, err = fields[0].OID(); err != nil {
		return nil, false, nil, err
	}
	vi := 1
	if len(fields) == 3 {
		if critical, err = fields[1].Bool(); err != nil {
			return nil, false, nil, err
		}
		vi = 2
	}
	if value, err = fields[vi].OctetString(); err != nil {
		return nil, false, nil, err
	}
	return oid, critical, value, nil
}

func legacyParseEntry(v der.Value) (legacyEntry, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 2 {
		return legacyEntry{}, errors.New("legacy: revoked entry")
	}
	e := legacyEntry{Reason: ReasonAbsent}
	if e.Serial, err = legacyInteger(fields[0]); err != nil {
		return legacyEntry{}, err
	}
	if e.RevokedAt, err = legacyTime(fields[1]); err != nil {
		return legacyEntry{}, err
	}
	if len(fields) >= 3 {
		exts, err := fields[2].Sequence()
		if err != nil {
			return legacyEntry{}, err
		}
		for _, ext := range exts {
			oid, critical, value, err := legacyParseExtension(ext)
			if err != nil {
				return legacyEntry{}, err
			}
			if oid.Equal(x509x.OIDExtCRLReason) {
				rv, rest, err := der.Parse(value)
				if err != nil || len(rest) != 0 {
					return legacyEntry{}, errors.New("legacy: reasonCode")
				}
				code, err := legacyEnumerated(rv)
				if err != nil {
					return legacyEntry{}, err
				}
				e.Reason = Reason(code)
			} else if critical {
				return legacyEntry{}, errors.New("legacy: unhandled critical entry extension")
			}
		}
	}
	return e, nil
}

func legacyParseListExtensions(c *legacyCRL, wrapper der.Value) error {
	kids, err := wrapper.Children()
	if err != nil || len(kids) != 1 {
		return errors.New("legacy: extensions wrapper")
	}
	exts, err := kids[0].Sequence()
	if err != nil {
		return err
	}
	for _, ext := range exts {
		oid, critical, value, err := legacyParseExtension(ext)
		if err != nil {
			return err
		}
		switch {
		case oid.Equal(x509x.OIDExtCRLNumber):
			nv, rest, err := der.Parse(value)
			if err != nil || len(rest) != 0 {
				return errors.New("legacy: CRLNumber")
			}
			if c.Number, err = legacyInteger(nv); err != nil {
				return err
			}
		case oid.Equal(x509x.OIDExtAuthorityKeyID):
		default:
			if critical {
				return errors.New("legacy: unhandled critical extension")
			}
		}
	}
	return nil
}

func legacyParse(raw []byte) (*legacyCRL, error) {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("legacy: trailing bytes")
	}
	outer, err := top.Sequence()
	if err != nil || len(outer) != 3 {
		return nil, errors.New("legacy: CertificateList must have 3 fields")
	}
	c := &legacyCRL{RawTBS: outer[0].Full}
	alg, err := legacyParseAlgID(outer[1])
	if err != nil {
		return nil, err
	}
	if !alg.Equal(x509x.OIDSignatureECDSAWithSHA256) {
		return nil, errors.New("legacy: unsupported signature algorithm")
	}
	if _, unused, err := outer[2].BitString(); err != nil || unused != 0 {
		return nil, errors.New("legacy: signature bits")
	}
	fields, err := outer[0].Sequence()
	if err != nil {
		return nil, errors.New("legacy: tbsCertList")
	}
	i := 0
	if i < len(fields) && fields[i].Tag == der.TagInteger && fields[i].Class == der.ClassUniversal {
		ver, err := legacyInt64(fields[i])
		if err != nil || ver != 1 {
			return nil, errors.New("legacy: unsupported version")
		}
		i++
	}
	if i >= len(fields) {
		return nil, errors.New("legacy: missing signature algorithm")
	}
	inner, err := legacyParseAlgID(fields[i])
	if err != nil {
		return nil, err
	}
	if !inner.Equal(alg) {
		return nil, errors.New("legacy: inner/outer mismatch")
	}
	i++
	if i >= len(fields) {
		return nil, errors.New("legacy: missing issuer")
	}
	if c.Issuer, err = x509x.ParseName(fields[i]); err != nil {
		return nil, err
	}
	i++
	if i >= len(fields) {
		return nil, errors.New("legacy: missing thisUpdate")
	}
	if c.ThisUpdate, err = legacyTime(fields[i]); err != nil {
		return nil, err
	}
	i++
	if i < len(fields) && fields[i].Class == der.ClassUniversal &&
		(fields[i].Tag == der.TagUTCTime || fields[i].Tag == der.TagGeneralizedTime) {
		if c.NextUpdate, err = legacyTime(fields[i]); err != nil {
			return nil, err
		}
		i++
	}
	if i < len(fields) && fields[i].Class == der.ClassUniversal && fields[i].Tag == der.TagSequence {
		entries, err := fields[i].Sequence()
		if err != nil {
			return nil, err
		}
		c.Entries = make([]legacyEntry, 0, len(entries))
		for _, ev := range entries {
			e, err := legacyParseEntry(ev)
			if err != nil {
				return nil, err
			}
			c.Entries = append(c.Entries, e)
		}
		i++
	}
	if i < len(fields) && fields[i].IsContext(0) {
		if err := legacyParseListExtensions(c, fields[i]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// --- differential helpers ------------------------------------------------

func compactOf(e legacyEntry) []byte { return e.Serial.Bytes() }

func assertSameCRL(t *testing.T, raw []byte, want *legacyCRL, got *CRL) {
	t.Helper()
	if !bytes.Equal(want.RawTBS, got.RawTBS) {
		t.Fatal("RawTBS differs")
	}
	if !want.ThisUpdate.Equal(got.ThisUpdate) || !want.NextUpdate.Equal(got.NextUpdate) {
		t.Fatalf("validity: legacy [%v %v], streaming [%v %v]",
			want.ThisUpdate, want.NextUpdate, got.ThisUpdate, got.NextUpdate)
	}
	if (want.Number == nil) != (got.Number == nil) ||
		(want.Number != nil && want.Number.Cmp(got.Number) != 0) {
		t.Fatalf("number: legacy %v, streaming %v", want.Number, got.Number)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Fatalf("entries: legacy %d, streaming %d", len(want.Entries), len(got.Entries))
	}
	for i, le := range want.Entries {
		ge := got.Entries[i]
		if !bytes.Equal(compactOf(le), ge.Serial) {
			t.Fatalf("entry %d serial: legacy %x, streaming %x", i, compactOf(le), ge.Serial)
		}
		if !le.RevokedAt.Equal(ge.RevokedAt) || le.Reason != ge.Reason {
			t.Fatalf("entry %d: legacy %+v, streaming %+v", i, le, ge)
		}
	}
	// The lazy path must agree with the eager one.
	var visited []Entry
	if err := Visit(raw, func(e Entry) error {
		visited = append(visited, Entry{
			Serial:    append([]byte(nil), e.Serial...),
			RevokedAt: e.RevokedAt,
			Reason:    e.Reason,
		})
		return nil
	}); err != nil {
		t.Fatalf("Visit rejected what Parse accepted: %v", err)
	}
	if len(visited) != len(got.Entries) {
		t.Fatalf("Visit yielded %d entries, Parse %d", len(visited), len(got.Entries))
	}
	for i, e := range visited {
		p := got.Entries[i]
		if !bytes.Equal(e.Serial, p.Serial) || !e.RevokedAt.Equal(p.RevokedAt) || e.Reason != p.Reason {
			t.Fatalf("Visit entry %d disagrees with Parse", i)
		}
	}
}

func toCompactEntries(entries []legacyEntry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{Serial: e.Serial.Bytes(), RevokedAt: e.RevokedAt, Reason: e.Reason}
	}
	return out
}

// parityCorpus returns a spread of entry shapes: 1-byte serials, serials
// with a high bit (sign padding), multi-byte serials, every named reason,
// an out-of-range reason, and entries without a reason extension.
func parityCorpus() [][]legacyEntry {
	base := thisUpdate
	var big160 = new(big.Int).Lsh(big.NewInt(1), 160)
	return [][]legacyEntry{
		nil,
		{{Serial: big.NewInt(1), RevokedAt: base, Reason: ReasonAbsent}},
		{{Serial: big.NewInt(127), RevokedAt: base, Reason: ReasonUnspecified},
			{Serial: big.NewInt(128), RevokedAt: base.Add(-time.Hour), Reason: ReasonKeyCompromise},
			{Serial: big.NewInt(255), RevokedAt: base.Add(-2 * time.Hour), Reason: ReasonCACompromise}},
		{{Serial: big.NewInt(1 << 62), RevokedAt: base, Reason: ReasonAffiliationChanged},
			{Serial: big160, RevokedAt: base, Reason: ReasonSuperseded},
			{Serial: new(big.Int).Sub(big160, big.NewInt(1)), RevokedAt: base, Reason: ReasonCessationOfOperation}},
		{{Serial: big.NewInt(1000), RevokedAt: base, Reason: ReasonCertificateHold},
			{Serial: big.NewInt(1001), RevokedAt: base, Reason: ReasonRemoveFromCRL},
			{Serial: big.NewInt(1002), RevokedAt: base, Reason: ReasonPrivilegeWithdrawn},
			{Serial: big.NewInt(1003), RevokedAt: base, Reason: ReasonAACompromise},
			{Serial: big.NewInt(1004), RevokedAt: base, Reason: Reason(42)}},
		// GeneralizedTime revocation date (year >= 2050).
		{{Serial: big.NewInt(7), RevokedAt: time.Date(2055, 3, 1, 12, 30, 45, 0, time.UTC), Reason: ReasonKeyCompromise}},
	}
}

// --- parity tests --------------------------------------------------------

// TestStreamingEncoderParity: the pooled-builder Create must emit a TBS
// byte-identical to the legacy one-shot encoder, for every corpus shape,
// with and without NextUpdate/Number; and EncodeCache must produce the
// same entriesDER as concatenating legacy per-entry encodings, including
// when extended incrementally.
func TestStreamingEncoderParity(t *testing.T) {
	issuer, key := newCA(t)
	for ci, entries := range parityCorpus() {
		for _, variant := range []struct {
			name string
			tmpl Template
		}{
			{"full", Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, Number: big.NewInt(99)}},
			{"noNext", Template{ThisUpdate: thisUpdate, Number: big.NewInt(1)}},
			{"noNumber", Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate}},
			{"bare", Template{ThisUpdate: thisUpdate}},
		} {
			tmpl := variant.tmpl
			tmpl.Entries = toCompactEntries(entries)
			raw, err := Create(&tmpl, issuer, key)
			if err != nil {
				t.Fatalf("corpus %d %s: Create: %v", ci, variant.name, err)
			}
			got, err := Parse(raw)
			if err != nil {
				t.Fatalf("corpus %d %s: Parse: %v", ci, variant.name, err)
			}
			wantTBS, err := legacyTBS(&tmpl, issuer, entries)
			if err != nil {
				t.Fatalf("corpus %d %s: legacyTBS: %v", ci, variant.name, err)
			}
			if !bytes.Equal(wantTBS, got.RawTBS) {
				t.Fatalf("corpus %d %s: TBS differs from legacy encoder", ci, variant.name)
			}
			if err := got.VerifySignature(issuer); err != nil {
				t.Fatalf("corpus %d %s: signature: %v", ci, variant.name, err)
			}
		}

		// EncodeCache vs concatenated legacy entries, grown one entry at
		// a time.
		var want []byte
		var ec EncodeCache
		compact := toCompactEntries(entries)
		for n := 0; n <= len(entries); n++ {
			gotDER, err := ec.Extend(compact[:n])
			if err != nil {
				t.Fatalf("corpus %d: Extend(%d): %v", ci, n, err)
			}
			if n > 0 {
				enc, err := legacyEncodeEntry(entries[n-1])
				if err != nil {
					t.Fatalf("corpus %d: legacy encode: %v", ci, err)
				}
				want = append(want, enc...)
			}
			if !bytes.Equal(want, gotDER) {
				t.Fatalf("corpus %d: EncodeCache at %d entries differs from legacy", ci, n)
			}
		}
	}
}

// TestStreamingEncoderRejectsBadSerials: both encoders must reject the
// same invalid serials.
func TestStreamingEncoderRejectsBadSerials(t *testing.T) {
	issuer, key := newCA(t)
	for _, bad := range [][]byte{nil, {}, {0}, {0, 0, 0}} {
		_, err := Create(&Template{ThisUpdate: thisUpdate,
			Entries: []Entry{{Serial: bad, RevokedAt: thisUpdate}}}, issuer, key)
		if err == nil {
			t.Errorf("Create accepted serial %x", bad)
		}
		_, lerr := legacyEncodeEntry(legacyEntry{Serial: new(big.Int).SetBytes(bad), RevokedAt: thisUpdate})
		if lerr == nil {
			t.Errorf("legacy accepted serial %x", bad)
		}
	}
}

// TestStreamingParserParityCorpus: every generated CRL parses to the same
// result through the legacy and streaming parsers, through Visit, and
// through Iter.
func TestStreamingParserParityCorpus(t *testing.T) {
	issuer, key := newCA(t)
	for ci, entries := range parityCorpus() {
		raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate,
			Number: big.NewInt(int64(ci + 1)), Entries: toCompactEntries(entries)}, issuer, key)
		if err != nil {
			t.Fatal(err)
		}
		want, lerr := legacyParse(raw)
		got, gerr := Parse(raw)
		if lerr != nil || gerr != nil {
			t.Fatalf("corpus %d: legacy err %v, streaming err %v", ci, lerr, gerr)
		}
		assertSameCRL(t, raw, want, got)
		// EntrySize must agree with the legacy per-entry encoding length.
		for i, le := range entries {
			enc, err := legacyEncodeEntry(le)
			if err != nil {
				t.Fatal(err)
			}
			if got := EntrySize(toCompactEntries(entries)[i]); got != len(enc) {
				t.Fatalf("corpus %d entry %d: EntrySize %d, legacy %d", ci, i, got, len(enc))
			}
		}
	}
}

// TestStreamingParserParityMutations drives both parsers over thousands of
// bit-flipped and truncated CRLs: the accept/reject decision must match
// exactly, and on accept the parsed entries must match.
func TestStreamingParserParityMutations(t *testing.T) {
	issuer, key := newCA(t)
	var seeds [][]byte
	for ci, entries := range parityCorpus() {
		raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate,
			Number: big.NewInt(int64(ci + 1)), Entries: toCompactEntries(entries)}, issuer, key)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	rng := rand.New(rand.NewSource(11))
	iters := 4000
	if testing.Short() {
		iters = 500
	}
	for i := 0; i < iters; i++ {
		seed := seeds[rng.Intn(len(seeds))]
		data := append([]byte(nil), seed...)
		for flips := rng.Intn(6) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(5) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		assertParityOn(t, data)
	}
}

// assertParityOn compares the legacy and streaming parsers on one input.
func assertParityOn(t *testing.T, data []byte) {
	t.Helper()
	want, lerr := legacyParse(data)
	got, gerr := Parse(data)
	if (lerr == nil) != (gerr == nil) {
		t.Fatalf("accept/reject mismatch on %x: legacy err %v, streaming err %v", data, lerr, gerr)
	}
	if lerr == nil {
		assertSameCRL(t, data, want, got)
	} else if gerr == nil {
		t.Fatalf("streaming accepted what legacy rejected: %x", data)
	}
}

// TestStreamingParserParityHeartbleedScale checks full equality on a CRL
// the size of GlobalSign's post-Heartbleed mass revocation.
func TestStreamingParserParityHeartbleedScale(t *testing.T) {
	n := 500000
	if testing.Short() {
		n = 20000
	}
	issuer, key := newCA(t)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			Serial:    big.NewInt(int64(i) + 1000000).Bytes(),
			RevokedAt: thisUpdate.Add(-time.Duration(i%48) * time.Hour),
			Reason:    Reason([]Reason{ReasonAbsent, ReasonUnspecified, ReasonKeyCompromise, ReasonSuperseded}[i%4]),
		}
	}
	raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate,
		Number: big.NewInt(7), Entries: entries}, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	want, lerr := legacyParse(raw)
	got, gerr := Parse(raw)
	if lerr != nil || gerr != nil {
		t.Fatalf("legacy err %v, streaming err %v", lerr, gerr)
	}
	if len(want.Entries) != n || len(got.Entries) != n {
		t.Fatalf("entry counts: legacy %d, streaming %d", len(want.Entries), len(got.Entries))
	}
	for i := range want.Entries {
		if !bytes.Equal(want.Entries[i].Serial.Bytes(), got.Entries[i].Serial) ||
			!want.Entries[i].RevokedAt.Equal(got.Entries[i].RevokedAt) ||
			want.Entries[i].Reason != got.Entries[i].Reason {
			t.Fatalf("entry %d differs", i)
		}
	}
	if err := got.VerifySignature(issuer); err != nil {
		t.Fatalf("signature: %v", err)
	}
	// And the incremental encoder agrees with the one-shot TBS: re-sign
	// from an EncodeCache extended in two steps and compare TBS bytes.
	var ec EncodeCache
	if _, err := ec.Extend(entries[:n/2]); err != nil {
		t.Fatal(err)
	}
	entriesDER, err := ec.Extend(entries)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, Number: big.NewInt(7)}
	raw2, err := CreateEncoded(tmpl, entriesDER, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reparsed.RawTBS, got.RawTBS) {
		t.Fatal("incrementally encoded TBS differs from one-shot TBS")
	}
}

// TestParseAllocsPerEntry pins the tentpole property: parsing scales with
// O(1) allocations per entry (the entry slice, the shell, and small
// fixed-count allocations only — far below one per entry).
func TestParseAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	issuer, key := newCA(t)
	const n = 2000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Serial: big.NewInt(int64(i) + 5000).Bytes(),
			RevokedAt: thisUpdate, Reason: ReasonKeyCompromise}
	}
	raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate,
		Number: big.NewInt(1), Entries: entries}, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Parse(raw); err != nil {
			t.Fatal(err)
		}
	})
	// Legacy was ~15 allocations per entry; the streaming parser does the
	// entry slice plus a fixed number of shell allocations.
	if allocs > 64 {
		t.Errorf("Parse of %d entries allocated %.0f times; want O(1) total", n, allocs)
	}
	// Visit must not even allocate the entry slice.
	vAllocs := testing.AllocsPerRun(10, func() {
		count := 0
		if err := Visit(raw, func(e Entry) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("visited %d", count)
		}
	})
	if vAllocs > 64 {
		t.Errorf("Visit allocated %.0f times; want O(1) total", vAllocs)
	}
}

// TestIncrementalResignAllocs gates the steady-state daily re-sign of an
// unchanged entry list: the encode cache hands back the entries' DER as
// it stands, so the op is header assembly plus one signature and its
// allocation count does not grow with the list.
func TestIncrementalResignAllocs(t *testing.T) {
	const maxAllocs = 104*2 + 8 // the recorded 104 per re-sign, times two, plus eight
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	issuer, key := newCA(t)
	entries := make([]Entry, 2000)
	for i := range entries {
		entries[i] = Entry{Serial: big.NewInt(int64(i)*2654435761 + 1000003).Bytes(),
			RevokedAt: thisUpdate.Add(-time.Duration(i%72) * time.Hour), Reason: Reason(i%4 - 1)}
	}
	var ec EncodeCache
	if _, err := ec.Extend(entries); err != nil {
		t.Fatal(err)
	}
	day := 0
	allocs := testing.AllocsPerRun(20, func() {
		day++
		der, err := ec.Extend(entries)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CreateEncoded(&Template{ThisUpdate: thisUpdate.AddDate(0, 0, day),
			NextUpdate: nextUpdate.AddDate(0, 0, day), Number: big.NewInt(int64(day))}, der, issuer, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("re-signing %d unchanged entries allocated %.0f times, want <= %d", len(entries), allocs, maxAllocs)
	}
}
