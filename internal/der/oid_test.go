package der

import (
	"bytes"
	"encoding/asn1"
	"testing"
	"testing/quick"
)

func TestOIDVectors(t *testing.T) {
	cases := []struct {
		s    string
		want []byte
	}{
		// id-sha256: 2.16.840.1.101.3.4.2.1
		{"2.16.840.1.101.3.4.2.1", []byte{0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01}},
		// id-ecPublicKey: 1.2.840.10045.2.1
		{"1.2.840.10045.2.1", []byte{0x06, 0x07, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x02, 0x01}},
		// commonName: 2.5.4.3
		{"2.5.4.3", []byte{0x06, 0x03, 0x55, 0x04, 0x03}},
	}
	for _, c := range cases {
		oid := MustOID(c.s)
		got := EncodeOID(oid)
		if !bytes.Equal(got, c.want) {
			t.Errorf("EncodeOID(%s) = % x, want % x", c.s, got, c.want)
		}
		v, _, err := Parse(got)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := v.OID()
		if err != nil || !dec.Equal(oid) {
			t.Errorf("decode %s = %v, %v", c.s, dec, err)
		}
		if dec.String() != c.s {
			t.Errorf("String() = %q, want %q", dec.String(), c.s)
		}
	}
}

func TestOIDInteropWithStdlib(t *testing.T) {
	oids := []string{"2.5.29.31", "1.3.6.1.5.5.7.48.1", "2.16.840.1.113733.1.7.23.6"}
	for _, s := range oids {
		ours := EncodeOID(MustOID(s))
		var std asn1.ObjectIdentifier
		if _, err := asn1.Unmarshal(ours, &std); err != nil {
			t.Fatalf("stdlib rejected our OID %s: %v", s, err)
		}
		if std.String() != s {
			t.Errorf("stdlib decoded %s as %s", s, std)
		}
		// And the reverse direction.
		stdEnc, err := asn1.Marshal(std)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdEnc, ours) {
			t.Errorf("OID %s: ours % x, stdlib % x", s, ours, stdEnc)
		}
	}
}

func TestParseOIDErrors(t *testing.T) {
	for _, s := range []string{"", "1", "1.x.3", "1.-2.3", "99999999999999999999.1"} {
		if _, err := parseOID(s); err == nil {
			t.Errorf("parseOID(%q) should fail", s)
		}
	}
}

func TestEncodeOIDPanics(t *testing.T) {
	for name, o := range map[string]OID{
		"one arc":    {1},
		"bad class":  {3, 1},
		"arc2 range": {0, 40},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			EncodeOID(o)
		}()
	}
}

func TestOIDDecodeErrors(t *testing.T) {
	bad := map[string][]byte{
		"empty":         {0x06, 0x00},
		"truncated arc": {0x06, 0x02, 0x86, 0x80},
		"leading 0x80":  {0x06, 0x02, 0x80, 0x01},
	}
	for name, b := range bad {
		v, _, err := Parse(b)
		if err != nil {
			continue
		}
		if _, err := v.OID(); err == nil {
			t.Errorf("%s: accepted % x", name, b)
		}
	}
}

func TestOIDEqual(t *testing.T) {
	a := MustOID("2.5.29.31")
	if !a.Equal(MustOID("2.5.29.31")) {
		t.Error("equal OIDs not Equal")
	}
	if a.Equal(MustOID("2.5.29.32")) || a.Equal(MustOID("2.5.29")) {
		t.Error("unequal OIDs reported Equal")
	}
}

// Property: every syntactically valid OID round-trips through
// encode/decode, and matches the stdlib encoding.
func TestOIDRoundTripProperty(t *testing.T) {
	f := func(arcsRaw []uint32, first uint8, second uint8) bool {
		o := OID{uint32(first % 3)}
		sec := uint32(second)
		if o[0] < 2 {
			sec %= 40
		}
		o = append(o, sec)
		for _, a := range arcsRaw {
			o = append(o, a%100000)
		}
		enc := EncodeOID(o)
		v, rest, err := Parse(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		dec, err := v.OID()
		if err != nil || !dec.Equal(o) {
			return false
		}
		// Interop: stdlib must agree byte-for-byte.
		std := make(asn1.ObjectIdentifier, len(o))
		for i, a := range o {
			std[i] = int(a)
		}
		stdEnc, err := asn1.Marshal(std)
		return err == nil && bytes.Equal(stdEnc, enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
