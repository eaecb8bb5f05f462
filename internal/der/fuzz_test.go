package der

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// FuzzParse: the strict DER parser must reject or accept arbitrary bytes
// without ever panicking — a crawler feeds it whatever the network serves.
// ParseAll (so Children) and OID must also give the values and errors of
// the one-pass decoders they replaced, kept below as refParseAll and
// refOID: on the input itself, on an accepted value's content, and on the
// input read as OID content.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x00})
	f.Add(Sequence(Int(1), PrintableString("x")))
	f.Add([]byte{0x30, 0x84, 0xff, 0xff, 0xff, 0xff})
	f.Add(EncodeOID(MustOID("2.5.29.31")))
	f.Add([]byte{0x06, 0x06, 0x2a, 0x90, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{0x06, 0x07, 0x2a, 0x90, 0x80, 0x80, 0x80, 0x01, 0x80})
	f.Add([]byte{0x06, 0x03, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, "ParseAll", data, ParseAll, refParseAll)
		sameDecode(t, "OID of the input as content", Value{Header: Header{Tag: TagOID}, Content: data}, Value.OID, refOID)
		v, rest, err := Parse(data)
		if err != nil {
			return
		}
		sameDecode(t, "Children", v, Value.Children, func(v Value) ([]Value, error) {
			if !v.Constructed {
				return v.Children()
			}
			return refParseAll(v.Content)
		})
		sameDecode(t, "OID", v, Value.OID, refOID)
		if len(v.Full)+len(rest) != len(data) {
			t.Fatalf("length accounting: %d + %d != %d", len(v.Full), len(rest), len(data))
		}
		// Exercising the typed decoders must not panic either.
		v.Integer()
		v.OID()
		v.Bool()
		v.Time()
		v.BitString()
		v.NamedBits()
		v.OctetString()
		v.DecodeString()
		v.Enumerated()
		if v.Constructed {
			v.Children()
		}
	})
}

// TestParseNeverPanicsOnMutations corrupts valid encodings at random
// positions: every mutation must parse cleanly or error, never panic, and
// successful parses must account for every byte.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seed := Sequence(
		Int(123456),
		Sequence(EncodeOID(MustOID("1.2.840.10045.4.3.2"))),
		PrintableString("mutation target"),
		BitString([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
		Explicit(3, Sequence(Bool(true), Null())),
	)
	for i := 0; i < 20000; i++ {
		data := append([]byte(nil), seed...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		vals, err := ParseAll(data)
		if err != nil {
			continue
		}
		total := 0
		for _, v := range vals {
			total += len(v.Full)
		}
		if total != len(data) {
			t.Fatalf("mutation %d: parsed %d of %d bytes", i, total, len(data))
		}
	}
}

// Property: random byte strings never panic the parser.
func TestParseRandomBytesProperty(t *testing.T) {
	f := func(data []byte) bool {
		Parse(data)
		ParseAll(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sameDecode fails t unless decode and ref agree on in: the same error
// text, or no error and deeply equal values.
func sameDecode[In, Out any](t *testing.T, what string, in In, decode, ref func(In) (Out, error)) {
	t.Helper()
	got, gotErr := decode(in)
	want, wantErr := ref(in)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %v, reference %v", what, got, want)
	}
}

// refParseAll is ParseAll as it was before it counted its TLVs first.
func refParseAll(data []byte) ([]Value, error) {
	var out []Value
	off := 0
	for off < len(data) {
		v, used, err := parseAt(data[off:], off)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += used
	}
	return out, nil
}

// refOID is Value.OID as it was before it decoded into one slice.
func refOID(v Value) (OID, error) {
	if err := v.expect(TagOID, false); err != nil {
		return nil, err
	}
	c := v.Content
	if len(c) == 0 {
		return nil, errors.New("der: empty OID content")
	}
	var arcs []uint64
	var cur uint64
	started := false
	for i, b := range c {
		if !started && b == 0x80 {
			return nil, errors.New("der: non-minimal OID arc (leading 0x80)")
		}
		started = true
		if cur > 1<<56 {
			return nil, errors.New("der: OID arc overflow")
		}
		cur = cur<<7 | uint64(b&0x7f)
		if b&0x80 == 0 {
			arcs = append(arcs, cur)
			cur = 0
			started = false
		} else if i == len(c)-1 {
			return nil, errors.New("der: truncated OID arc")
		}
	}
	first := arcs[0]
	out := make(OID, 0, len(arcs)+1)
	switch {
	case first < 40:
		out = append(out, 0, uint32(first))
	case first < 80:
		out = append(out, 1, uint32(first-40))
	default:
		out = append(out, 2, uint32(first-80))
	}
	for _, a := range arcs[1:] {
		if a > 1<<32-1 {
			return nil, errors.New("der: OID arc out of uint32 range")
		}
		out = append(out, uint32(a))
	}
	return out, nil
}
