package der

import "time"

// Builder incrementally encodes DER into a single growing buffer,
// cryptobyte-style: Begin writes the identifier plus a one-byte length
// placeholder, End back-patches the real length (shifting the content only
// in the rare case it exceeds 127 bytes). Leaf appenders (UnsignedInteger,
// Time, ...) know their content length up front and write headers
// directly. The zero value is ready to use; the byte output is identical
// to the package-level one-shot encoders.
type Builder struct {
	buf   []byte
	marks []int
}

// Bytes returns the encoded bytes. The slice aliases the builder's buffer
// and is invalidated by further appends.
func (b *Builder) Bytes() []byte { return b.buf }

// Begin opens a TLV whose content is everything appended until the
// matching End.
func (b *Builder) Begin(h Header) {
	b.buf = appendIdentifier(b.buf, h)
	b.marks = append(b.marks, len(b.buf))
	b.buf = append(b.buf, 0) // length placeholder, patched by End
}

// BeginSequence opens a SEQUENCE.
func (b *Builder) BeginSequence() {
	b.Begin(Header{Tag: TagSequence, Constructed: true})
}

// End closes the innermost Begin, back-patching its length.
func (b *Builder) End() {
	m := b.marks[len(b.marks)-1]
	b.marks = b.marks[:len(b.marks)-1]
	n := len(b.buf) - m - 1
	if n < 0x80 {
		b.buf[m] = byte(n)
		return
	}
	extra := 1
	for lim := 0x100; n >= lim && extra < 4; lim <<= 8 {
		extra++
	}
	b.buf = append(b.buf, make([]byte, extra)...)
	copy(b.buf[m+1+extra:], b.buf[m+1:len(b.buf)-extra])
	b.buf[m] = 0x80 | byte(extra)
	for i := 0; i < extra; i++ {
		b.buf[m+1+i] = byte(n >> (8 * (extra - 1 - i)))
	}
}

// Raw appends already-encoded TLV bytes.
func (b *Builder) Raw(p []byte) { b.buf = append(b.buf, p...) }

// primitive appends the header of a universal primitive with a known
// content length.
func (b *Builder) primitive(tag int, contentLen int) {
	b.buf = appendIdentifier(b.buf, Header{Tag: tag})
	b.buf = appendLength(b.buf, contentLen)
}

// UnsignedInteger appends an INTEGER from a big-endian magnitude (leading
// zeros permitted; empty means zero), the counterpart of Integer for
// compact non-negative serials.
func (b *Builder) UnsignedInteger(mag []byte) {
	for len(mag) > 0 && mag[0] == 0 {
		mag = mag[1:]
	}
	n := len(mag)
	pad := false
	switch {
	case n == 0:
		b.primitive(TagInteger, 1)
		b.buf = append(b.buf, 0)
		return
	case mag[0]&0x80 != 0:
		pad = true
		n++
	}
	b.primitive(TagInteger, n)
	if pad {
		b.buf = append(b.buf, 0)
	}
	b.buf = append(b.buf, mag...)
}

// Time appends a timestamp under X.509's rule: UTCTime for years in
// [1950, 2049], GeneralizedTime otherwise.
func (b *Builder) Time(t time.Time) {
	t = t.UTC()
	if y := t.Year(); y >= 1950 && y < 2050 {
		b.primitive(TagUTCTime, len(utcTimeFormat))
		b.buf = t.AppendFormat(b.buf, utcTimeFormat)
		return
	}
	// Years outside [0, 9999] format to a different width than the
	// layout string; Begin/End measures the actual bytes.
	b.Begin(Header{Tag: TagGeneralizedTime})
	b.buf = t.AppendFormat(b.buf, generalizedTimeFormat)
	b.End()
}
