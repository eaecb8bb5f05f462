package crl

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/der"
	"repro/internal/x509x"
)

// The one-pass entry decoder (parseEntryCanonical) must be a pure
// shortcut: on every entry it takes, the Entry it returns is the one the
// cursor decoder returns, and whatever it declines still decodes, or is
// rejected, exactly as before.

// entryShape is one revoked-certificate encoding and whether the one-pass
// path is meant to take it.
type entryShape struct {
	name      string
	raw       []byte
	canonical bool
}

// encodeEntry is the encoder's own bytes for e.
func encodeEntry(t testing.TB, e Entry) []byte {
	t.Helper()
	var b der.Builder
	if err := appendEntry(&b, e); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func reasonExt(content []byte) []byte {
	return der.Sequence(der.EncodeOID(x509x.OIDExtCRLReason), der.OctetString(content))
}

func entryShapes(t testing.TB) []entryShape {
	at := time.Date(2014, 4, 9, 12, 30, 5, 0, time.UTC)
	serial := []byte{0x41, 0x02, 0x03}
	var shapes []entryShape
	add := func(canonical bool, raw []byte, format string, args ...any) {
		shapes = append(shapes, entryShape{fmt.Sprintf(format, args...), raw, canonical})
	}

	// Reason codes: every standard code, none, and the one-byte edges.
	for r := ReasonUnspecified; r <= ReasonAACompromise; r++ {
		add(true, encodeEntry(t, Entry{Serial: serial, RevokedAt: at, Reason: r}), "reason %d", r)
	}
	add(true, encodeEntry(t, Entry{Serial: serial, RevokedAt: at, Reason: ReasonAbsent}), "reason absent")
	add(true, encodeEntry(t, Entry{Serial: serial, RevokedAt: at, Reason: 0x7f}), "reason 0x7f")
	add(false, der.Sequence(der.Int(0x4102), der.Time(at), der.Sequence(reasonExt([]byte{0x0a, 0x01, 0x80}))), "reason 0x80 (-128)")
	add(false, encodeEntry(t, Entry{Serial: serial, RevokedAt: at, Reason: 0x80}), "reason 128 (two-byte code)")

	// Serials of every length the CAs use, with and without a sign pad.
	for n := 1; n <= 20; n++ {
		mag := bytes.Repeat([]byte{0x5a}, n)
		mag[0] = 0x41
		add(true, encodeEntry(t, Entry{Serial: mag, RevokedAt: at, Reason: ReasonKeyCompromise}), "serial %d bytes", n)
		padded := append([]byte(nil), mag...)
		padded[0] = 0xc1
		add(true, encodeEntry(t, Entry{Serial: padded, RevokedAt: at, Reason: ReasonAbsent}), "serial %d bytes, sign pad", n)
	}
	add(false, der.Sequence([]byte{0x02, 0x02, 0x00, 0x05}, der.Time(at)), "non-minimal serial")
	add(false, der.Sequence([]byte{0x02, 0x01, 0xff}, der.Time(at)), "negative serial -1")
	add(false, der.Sequence([]byte{0x02, 0x02, 0x80, 0x01}, der.Time(at), der.Sequence(reasonExt([]byte{0x0a, 0x01, 0x01}))), "negative serial, reason")
	add(false, der.Sequence([]byte{0x02, 0x01, 0x00}, der.Time(at)), "zero serial")
	add(false, der.Sequence([]byte{0x02, 0x00}, der.Time(at)), "empty serial")
	add(false, der.Sequence([]byte{0x02, 0x81, 0x01, 0x05}, der.Time(at)), "long-form serial length")
	add(false, der.Sequence(append([]byte{0x02, 0x81, 0x80}, bytes.Repeat([]byte{0x41}, 0x80)...), der.Time(at)), "128-byte serial")
	add(false, der.Sequence([]byte{0x0a, 0x01, 0x05}, der.Time(at)), "serial tagged ENUMERATED")

	// Revocation times either side of the UTCTime window, and bad ones.
	for _, y := range []int{1950, 2049} {
		add(true, encodeEntry(t, Entry{Serial: serial, RevokedAt: time.Date(y, 12, 31, 23, 59, 59, 0, time.UTC), Reason: ReasonSuperseded}), "UTCTime %d", y)
	}
	add(false, encodeEntry(t, Entry{Serial: serial, RevokedAt: time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC), Reason: ReasonSuperseded}), "GeneralizedTime 2050")
	add(false, der.Sequence(der.Int(5), der.TLV(der.Header{Tag: der.TagUTCTime}, []byte("140230000000Z"))), "UTCTime Feb 30")
	add(false, der.Sequence(der.Int(5), der.TLV(der.Header{Tag: der.TagUTCTime}, []byte("1404091230Z"))), "UTCTime without seconds")
	add(false, der.Sequence(der.Int(5), der.TLV(der.Header{Tag: der.TagUTCTime}, []byte("140409123005+0000"))), "UTCTime with offset")
	add(false, der.Sequence(der.Int(5)), "no revocation time")

	// Extensions other than the encoder's one reasonCode, and trailers.
	crit := der.Sequence(der.EncodeOID(x509x.OIDExtCRLReason), der.Bool(true), der.OctetString([]byte{0x0a, 0x01, 0x01}))
	unknown := der.Sequence(der.EncodeOID(der.MustOID("1.2.3.4")), der.OctetString(der.Null()))
	unknownCrit := der.Sequence(der.EncodeOID(der.MustOID("1.2.3.4")), der.Bool(true), der.OctetString(der.Null()))
	serialInt := new(big.Int).SetBytes(serial)
	canon := encodeEntry(t, Entry{Serial: serial, RevokedAt: at, Reason: ReasonKeyCompromise})
	v, _, err := der.Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(crit)), "critical reasonCode")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(unknown)), "unknown extension")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(unknownCrit)), "unknown critical extension")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(reasonExtDER[1][2:], unknown)), "two extensions")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence()), "empty extensions")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(reasonExt([]byte{0x0a, 0x02, 0x00, 0x01}))), "non-minimal reason code")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Sequence(reasonExt([]byte{0x02, 0x01, 0x01}))), "reason code tagged INTEGER")
	add(false, der.Sequence(v.Content, der.Null()), "trailing NULL after extensions")
	add(false, der.Sequence(der.Integer(serialInt), der.Time(at), der.Null()), "NULL in place of extensions")
	add(false, der.Sequence(v.Content, []byte{0x00}), "trailing partial TLV")
	add(false, der.Set(v.Content), "entry tagged SET")
	return shapes
}

// sameEntry reports whether two decodings are equal.
func sameEntry(a, b Entry) bool {
	return bytes.Equal(a.Serial, b.Serial) && a.RevokedAt == b.RevokedAt && a.Reason == b.Reason
}

// assertEntryPathsAgree decodes v through the one-pass path, the cursor
// path and parseEntry, which chooses between them.
func assertEntryPathsAgree(t *testing.T, what string, v der.Value) {
	t.Helper()
	want, werr := parseEntryCursor(v)
	got, gerr := parseEntry(v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: cursor err %v, parseEntry err %v", what, werr, gerr)
	}
	if werr == nil && !sameEntry(got, want) {
		t.Fatalf("%s: parseEntry %+v, cursor %+v", what, got, want)
	}
	if e, ok := parseEntryCanonical(v); ok {
		if werr != nil {
			t.Fatalf("%s: one-pass path took an entry the cursor rejects (%v): %+v", what, werr, e)
		}
		if !sameEntry(e, want) || &e.Serial[0] != &want.Serial[0] {
			t.Fatalf("%s: one-pass %+v, cursor %+v (or the serials alias different bytes)", what, e, want)
		}
	}
}

func TestEntryPathsAgree(t *testing.T) {
	for _, s := range entryShapes(t) {
		v, rest, err := der.Parse(s.raw)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: not one TLV (%v, %d trailing)", s.name, err, len(rest))
		}
		if _, took := parseEntryCanonical(v); took != s.canonical {
			t.Errorf("%s: one-pass path took it: %t, want %t", s.name, took, s.canonical)
		}
		assertEntryPathsAgree(t, s.name, v)
	}
}

// FuzzDecodeEntry feeds arbitrary entry bytes through both paths: input
// that is not one TLV is taken as an entry SEQUENCE's content.
func FuzzDecodeEntry(f *testing.F) {
	for _, s := range entryShapes(f) {
		f.Add(s.raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := der.Parse(data)
		if err != nil {
			if v, _, err = der.Parse(der.Sequence(data)); err != nil {
				t.Fatal(err)
			}
		}
		assertEntryPathsAgree(t, fmt.Sprintf("%x", data), v)
	})
}
