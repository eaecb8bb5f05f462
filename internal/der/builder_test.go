package der

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

// Every Builder construct must be byte-identical to the one-shot
// package-level encoder it replaces.

func TestBuilderSequenceIdentity(t *testing.T) {
	cases := []struct {
		name string
		want []byte
		emit func(b *Builder)
	}{
		{"empty", Sequence(), func(b *Builder) { b.BeginSequence(); b.End() }},
		{"flat", Sequence(Int(1), Int(2)), func(b *Builder) {
			b.BeginSequence()
			b.Raw(Int(1))
			b.Raw(Int(2))
			b.End()
		}},
		{"nested", Sequence(Sequence(Int(7)), OctetString([]byte("hi"))), func(b *Builder) {
			b.BeginSequence()
			b.BeginSequence()
			b.Raw(Int(7))
			b.End()
			b.Raw(OctetString([]byte("hi")))
			b.End()
		}},
		{"longform128", Sequence(OctetString(make([]byte, 128))), func(b *Builder) {
			b.BeginSequence()
			b.Raw(OctetString(make([]byte, 128)))
			b.End()
		}},
		{"longform300", Sequence(OctetString(make([]byte, 300))), func(b *Builder) {
			b.BeginSequence()
			b.Raw(OctetString(make([]byte, 300)))
			b.End()
		}},
		{"longform70k", Sequence(OctetString(make([]byte, 70000))), func(b *Builder) {
			b.BeginSequence()
			b.Raw(OctetString(make([]byte, 70000)))
			b.End()
		}},
	}
	for _, tc := range cases {
		var b Builder
		tc.emit(&b)
		if !bytes.Equal(b.Bytes(), tc.want) {
			t.Errorf("%s: builder output differs from one-shot encoder", tc.name)
		}
	}
}

// Nested long-form lengths force End to shift content multiple times.
func TestBuilderNestedLongForm(t *testing.T) {
	payload := make([]byte, 200)
	want := Sequence(Sequence(Sequence(OctetString(payload))))
	var b Builder
	b.BeginSequence()
	b.BeginSequence()
	b.BeginSequence()
	b.Raw(OctetString(payload))
	b.End()
	b.End()
	b.End()
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatal("nested long-form output differs")
	}
}

func TestBuilderUnsignedIntegerIdentity(t *testing.T) {
	f := func(mag []byte) bool {
		var b Builder
		b.UnsignedInteger(mag)
		return bytes.Equal(b.Bytes(), Integer(new(big.Int).SetBytes(mag)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	for _, mag := range [][]byte{nil, {}, {0}, {0, 0}, {1}, {0x7f}, {0x80},
		{0, 0x80}, {0xff, 0xff}, {1, 0, 0, 0, 0, 0, 0, 0, 0}} {
		var b Builder
		b.UnsignedInteger(mag)
		want := Integer(new(big.Int).SetBytes(mag))
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("UnsignedInteger(%x) = %x, want %x", mag, b.Bytes(), want)
		}
	}
}

func TestBuilderTimeIdentity(t *testing.T) {
	times := []time.Time{
		time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 10, 2, 12, 30, 45, 0, time.UTC),
		time.Date(2049, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2100, 6, 15, 6, 7, 8, 0, time.UTC),
		time.Date(1949, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
	for _, tm := range times {
		var b Builder
		b.Time(tm)
		if !bytes.Equal(b.Bytes(), Time(tm)) {
			t.Errorf("Time(%v) differs from one-shot encoder", tm)
		}
	}
}

func TestBuilderRaw(t *testing.T) {
	var b Builder
	b.Raw(Int(5))
	b.Raw(Int(6))
	want := append(append([]byte{}, Int(5)...), Int(6)...)
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Bytes = %x, want %x", b.Bytes(), want)
	}
}

// reset empties b and keeps its buffer.
func (b *Builder) reset() {
	b.buf = b.buf[:0]
	b.marks = b.marks[:0]
}

func TestBuilderZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var b Builder
	// Prime the buffer so appends don't grow it.
	b.BeginSequence()
	for i := 0; i < 100; i++ {
		b.UnsignedInteger([]byte{byte(i + 1)})
	}
	b.End()
	b.reset()
	allocs := testing.AllocsPerRun(100, func() {
		b.reset()
		b.BeginSequence()
		for i := 0; i < 100; i++ {
			b.UnsignedInteger([]byte{byte(i + 1)})
			b.Time(time.Date(2014, 10, 2, 12, 30, 45, 0, time.UTC))
		}
		b.End()
	})
	if allocs != 0 {
		t.Errorf("steady-state build allocated %.1f times, want 0", allocs)
	}
}
