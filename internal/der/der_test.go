package der

import (
	"bytes"
	"encoding/asn1"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestTLVShortAndLongLengths(t *testing.T) {
	cases := []struct {
		n    int
		want []byte // expected length octets
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7f}},
		{128, []byte{0x81, 0x80}},
		{255, []byte{0x81, 0xff}},
		{256, []byte{0x82, 0x01, 0x00}},
		{65535, []byte{0x82, 0xff, 0xff}},
		{65536, []byte{0x83, 0x01, 0x00, 0x00}},
	}
	for _, c := range cases {
		enc := OctetString(make([]byte, c.n))
		gotLen := enc[1 : 1+len(c.want)]
		if !bytes.Equal(gotLen, c.want) {
			t.Errorf("length %d encoded as % x, want % x", c.n, gotLen, c.want)
		}
		v, rest, err := Parse(enc)
		if err != nil {
			t.Fatalf("parse length %d: %v", c.n, err)
		}
		if len(rest) != 0 || len(v.Content) != c.n {
			t.Errorf("round trip length %d: content %d, rest %d", c.n, len(v.Content), len(rest))
		}
	}
}

func TestIntegerVectors(t *testing.T) {
	cases := []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x02, 0x01, 0x00}},
		{1, []byte{0x02, 0x01, 0x01}},
		{127, []byte{0x02, 0x01, 0x7f}},
		{128, []byte{0x02, 0x02, 0x00, 0x80}},
		{256, []byte{0x02, 0x02, 0x01, 0x00}},
		{-1, []byte{0x02, 0x01, 0xff}},
		{-128, []byte{0x02, 0x01, 0x80}},
		{-129, []byte{0x02, 0x02, 0xff, 0x7f}},
		{-256, []byte{0x02, 0x02, 0xff, 0x00}},
	}
	for _, c := range cases {
		got := Int(c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("Int(%d) = % x, want % x", c.v, got, c.want)
		}
		v, _, err := Parse(got)
		if err != nil {
			t.Fatalf("parse Int(%d): %v", c.v, err)
		}
		dec, err := v.Int64()
		if err != nil || dec != c.v {
			t.Errorf("decode Int(%d) = %d, %v", c.v, dec, err)
		}
	}
}

func TestIntegerInteropWithStdlib(t *testing.T) {
	values := []int64{0, 1, -1, 127, 128, -128, -129, 1 << 40, -(1 << 40)}
	for _, val := range values {
		ours := Int(val)
		std, err := asn1.Marshal(val)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ours, std) {
			t.Errorf("Int(%d): ours % x, stdlib % x", val, ours, std)
		}
	}
}

func TestIntegerRoundTripProperty(t *testing.T) {
	f := func(raw []byte, neg bool) bool {
		v := new(big.Int).SetBytes(raw)
		if neg {
			v.Neg(v)
		}
		enc := Integer(v)
		parsed, rest, err := Parse(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		dec, err := parsed.Integer()
		return err == nil && dec.Cmp(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNonMinimalIntegerRejected(t *testing.T) {
	bad := [][]byte{
		{0x02, 0x02, 0x00, 0x01}, // leading zero
		{0x02, 0x02, 0xff, 0xff}, // leading ones
		{0x02, 0x00},             // empty
	}
	for _, b := range bad {
		v, _, err := Parse(b)
		if err != nil {
			continue // some are rejected at TLV level
		}
		if _, err := v.Integer(); err == nil {
			t.Errorf("accepted non-minimal integer % x", b)
		}
	}
}

func TestBool(t *testing.T) {
	for _, val := range []bool{true, false} {
		enc := Bool(val)
		v, _, err := Parse(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Bool()
		if err != nil || got != val {
			t.Errorf("Bool(%t) round trip = %t, %v", val, got, err)
		}
	}
	// BER TRUE (0x01) must be rejected in DER.
	v, _, err := Parse([]byte{0x01, 0x01, 0x01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Bool(); err == nil {
		t.Error("accepted non-DER boolean 0x01")
	}
}

func TestSequenceNesting(t *testing.T) {
	enc := Sequence(Int(1), Sequence(PrintableString("CA"), Bool(true)), Null())
	v, rest, err := Parse(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("parse: %v rest=%d", err, len(rest))
	}
	kids, err := v.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 {
		t.Fatalf("got %d children", len(kids))
	}
	inner, err := kids[1].Sequence()
	if err != nil {
		t.Fatal(err)
	}
	s, err := inner[0].DecodeString()
	if err != nil || s != "CA" {
		t.Errorf("inner string = %q, %v", s, err)
	}
	b, err := inner[1].Bool()
	if err != nil || !b {
		t.Errorf("inner bool = %t, %v", b, err)
	}
	if _, err := kids[2].Sequence(); err == nil {
		t.Error("Sequence() on NULL should fail")
	}
}

func TestBitString(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	enc := BitString(payload)
	v, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	bits, unused, err := v.BitString()
	if err != nil || unused != 0 || !bytes.Equal(bits, payload) {
		t.Errorf("BitString round trip: % x unused=%d err=%v", bits, unused, err)
	}
}

func TestNamedBitString(t *testing.T) {
	// KeyUsage-style: bit 0 (digitalSignature) and bit 5 (keyCertSign).
	enc := NamedBitString([]bool{true, false, false, false, false, true})
	// Expect content: unused=2, byte 0b10000100.
	want := []byte{0x03, 0x02, 0x02, 0x84}
	if !bytes.Equal(enc, want) {
		t.Fatalf("NamedBitString = % x, want % x", enc, want)
	}
	v, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := v.NamedBits()
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 6 || !bits[0] || bits[1] || !bits[5] {
		t.Errorf("NamedBits = %v", bits)
	}
	// All-false list encodes as a single zero byte.
	empty := NamedBitString([]bool{false, false})
	if !bytes.Equal(empty, []byte{0x03, 0x01, 0x00}) {
		t.Errorf("empty NamedBitString = % x", empty)
	}
}

func TestNamedBitStringInterop(t *testing.T) {
	enc := NamedBitString([]bool{true, false, true})
	var bs asn1.BitString
	if _, err := asn1.Unmarshal(enc, &bs); err != nil {
		t.Fatalf("stdlib rejected our named bit string: %v", err)
	}
	if bs.BitLength != 3 || bs.At(0) != 1 || bs.At(1) != 0 || bs.At(2) != 1 {
		t.Errorf("stdlib decoded %+v", bs)
	}
}

func TestTimeEncoding(t *testing.T) {
	utc := time.Date(2014, 4, 7, 12, 30, 45, 0, time.UTC)
	enc := Time(utc)
	if enc[0] != TagUTCTime {
		t.Fatalf("2014 date should be UTCTime, tag %d", enc[0])
	}
	v, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Time()
	if err != nil || !got.Equal(utc) {
		t.Errorf("UTCTime round trip = %v, %v", got, err)
	}

	future := time.Date(2055, 1, 2, 3, 4, 5, 0, time.UTC)
	enc = Time(future)
	if enc[0] != TagGeneralizedTime {
		t.Fatalf("2055 date should be GeneralizedTime, tag %d", enc[0])
	}
	v, _, err = Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err = v.Time()
	if err != nil || !got.Equal(future) {
		t.Errorf("GeneralizedTime round trip = %v, %v", got, err)
	}
}

func TestUTCTimeCentury(t *testing.T) {
	// Years 50-99 are 19xx per RFC 5280.
	old := time.Date(1975, 6, 1, 0, 0, 0, 0, time.UTC)
	v, _, err := Parse(Time(old))
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Time()
	if err != nil || got.Year() != 1975 {
		t.Errorf("1975 round trip = %v, %v", got, err)
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	base := time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(offsetHours uint32) bool {
		tt := base.Add(time.Duration(offsetHours%(100*365*24)) * time.Hour)
		v, rest, err := Parse(Time(tt))
		if err != nil || len(rest) != 0 {
			return false
		}
		got, err := v.Time()
		return err == nil && got.Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeInteropWithStdlib(t *testing.T) {
	tt := time.Date(2014, 4, 7, 12, 0, 0, 0, time.UTC)
	var got time.Time
	if _, err := asn1.Unmarshal(Time(tt), &got); err != nil {
		t.Fatalf("stdlib rejected our UTCTime: %v", err)
	}
	if !got.Equal(tt) {
		t.Errorf("stdlib decoded %v", got)
	}
}

func TestExplicitImplicit(t *testing.T) {
	inner := Int(7)
	exp := Explicit(3, inner)
	v, _, err := Parse(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsContext(3) || !v.Constructed {
		t.Fatalf("explicit wrapper: %s", v.Header)
	}
	kids, err := v.Children()
	if err != nil || len(kids) != 1 {
		t.Fatalf("children: %v", err)
	}
	if n, _ := kids[0].Int64(); n != 7 {
		t.Errorf("inner = %d", n)
	}

	imp := Implicit(0, false, []byte("hello"))
	v, _, err = Parse(imp)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsContext(0) || v.Constructed || string(v.Content) != "hello" {
		t.Errorf("implicit: %s content=%q", v.Header, v.Content)
	}
	if _, err := v.Children(); err == nil {
		t.Error("Children on primitive should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string][]byte{
		"empty":               {},
		"missing length":      {0x30},
		"truncated content":   {0x30, 0x05, 0x01},
		"indefinite length":   {0x30, 0x80, 0x00, 0x00},
		"non-minimal len 1":   {0x04, 0x81, 0x05, 1, 2, 3, 4, 5},
		"non-minimal len 2":   {0x04, 0x82, 0x00, 0x81, 0x00},
		"huge length-of-len":  {0x04, 0x85, 1, 1, 1, 1, 1},
		"truncated len bytes": {0x04, 0x82, 0x01},
	}
	for name, b := range bad {
		if _, _, err := Parse(b); err == nil {
			t.Errorf("%s: Parse accepted % x", name, b)
		}
	}
}

func TestParseAllTrailingGarbage(t *testing.T) {
	data := append(Int(1), 0xff)
	if _, err := ParseAll(data); err == nil {
		t.Error("ParseAll accepted trailing garbage")
	}
	vals, err := ParseAll(append(Int(1), Int(2)...))
	if err != nil || len(vals) != 2 {
		t.Fatalf("ParseAll two ints: %v, %d", err, len(vals))
	}
}

func TestHighTagNumbers(t *testing.T) {
	enc := TLV(Header{Class: ClassContextSpecific, Tag: 200, Constructed: true}, Int(1))
	v, rest, err := Parse(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("high tag parse: %v", err)
	}
	if v.Tag != 200 || v.Class != ClassContextSpecific {
		t.Errorf("high tag decoded as %s", v.Header)
	}
	// Non-minimal high-tag form must be rejected.
	if _, _, err := Parse([]byte{0xbf, 0x05, 0x01, 0x00}); err == nil {
		t.Error("accepted high-tag form for small tag")
	}
}

func TestStringTypes(t *testing.T) {
	for _, enc := range [][]byte{
		PrintableString("GoDaddy"),
		UTF8String("GoDaddy™"),
		universal(TagIA5String, false, []byte("http://crl.example.com/ca.crl")),
	} {
		v, _, err := Parse(enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.DecodeString(); err != nil {
			t.Errorf("DecodeString: %v", err)
		}
	}
	v, _, _ := Parse(Int(1))
	if _, err := v.DecodeString(); err == nil {
		t.Error("DecodeString on INTEGER should fail")
	}
}

func TestOctetStringRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		v, rest, err := Parse(OctetString(payload))
		if err != nil || len(rest) != 0 {
			return false
		}
		got, err := v.OctetString()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerated(t *testing.T) {
	enc := Enumerated(5) // CRL reason: cessationOfOperation
	v, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Enumerated()
	if err != nil || got != 5 {
		t.Errorf("Enumerated = %d, %v", got, err)
	}
	if _, err := v.Integer(); err == nil {
		t.Error("Integer() on ENUMERATED should fail (different tag)")
	}
}
