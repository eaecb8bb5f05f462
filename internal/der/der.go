// Package der implements a from-scratch ASN.1 DER (Distinguished Encoding
// Rules) codec — the wire format beneath X.509 certificates, CRLs, and OCSP
// messages.
//
// The encoder produces canonical DER (definite, minimal lengths; minimal
// two's-complement integers). The decoder is strict: it rejects indefinite
// lengths, non-minimal lengths, and trailing garbage, because a measurement
// pipeline that silently accepts malformed revocation data would corrupt
// every downstream statistic.
package der

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// Class is an ASN.1 tag class.
type Class int

// Tag classes.
const (
	ClassUniversal       Class = 0
	ClassApplication     Class = 1
	ClassContextSpecific Class = 2
	ClassPrivate         Class = 3
)

// Universal tag numbers used by the PKI formats.
const (
	TagBoolean         = 1
	TagInteger         = 2
	TagBitString       = 3
	TagOctetString     = 4
	TagNull            = 5
	TagOID             = 6
	TagEnumerated      = 10
	TagUTF8String      = 12
	TagSequence        = 16
	TagSet             = 17
	TagPrintableString = 19
	TagIA5String       = 22
	TagUTCTime         = 23
	TagGeneralizedTime = 24
)

// Header describes the identity of a TLV: its class, tag number, and
// whether the content is constructed.
type Header struct {
	Class       Class
	Tag         int
	Constructed bool
}

func (h Header) String() string {
	return fmt.Sprintf("class=%d tag=%d constructed=%t", h.Class, h.Tag, h.Constructed)
}

// Value is one decoded TLV.
type Value struct {
	Header
	// Content is the value bytes (excluding tag and length).
	Content []byte
	// Full is the complete encoding including tag and length.
	Full []byte
}

// appendIdentifier appends the identifier octets for h.
func appendIdentifier(dst []byte, h Header) []byte {
	b := byte(h.Class) << 6
	if h.Constructed {
		b |= 0x20
	}
	if h.Tag < 31 {
		return append(dst, b|byte(h.Tag))
	}
	// High-tag-number form (not used by the PKI formats, but supported
	// for completeness).
	dst = append(dst, b|0x1f)
	var stack [5]byte
	n := 0
	t := h.Tag
	for t > 0 {
		stack[n] = byte(t & 0x7f)
		t >>= 7
		n++
	}
	for i := n - 1; i >= 0; i-- {
		v := stack[i]
		if i > 0 {
			v |= 0x80
		}
		dst = append(dst, v)
	}
	return dst
}

// appendLength appends the definite minimal length octets.
func appendLength(dst []byte, length int) []byte {
	switch {
	case length < 0x80:
		return append(dst, byte(length))
	case length < 0x100:
		return append(dst, 0x81, byte(length))
	case length < 0x10000:
		return append(dst, 0x82, byte(length>>8), byte(length))
	case length < 0x1000000:
		return append(dst, 0x83, byte(length>>16), byte(length>>8), byte(length))
	default:
		return append(dst, 0x84, byte(length>>24), byte(length>>16), byte(length>>8), byte(length))
	}
}

// encodeHeader appends the identifier and length octets for (h, length).
func encodeHeader(dst []byte, h Header, length int) []byte {
	return appendLength(appendIdentifier(dst, h), length)
}

// TLV encodes one tag-length-value with the given header and content.
func TLV(h Header, content []byte) []byte {
	out := encodeHeader(make([]byte, 0, len(content)+6), h, len(content))
	return append(out, content...)
}

func universal(tag int, constructed bool, content []byte) []byte {
	return TLV(Header{Class: ClassUniversal, Tag: tag, Constructed: constructed}, content)
}

// constructed encodes a universal constructed TLV whose content is the
// concatenation of the already-encoded children: the children are sized
// once and written once, straight after the header.
func constructed(tag int, children [][]byte) []byte {
	n := 0
	for _, c := range children {
		n += len(c)
	}
	out := encodeHeader(make([]byte, 0, n+6), Header{Class: ClassUniversal, Tag: tag, Constructed: true}, n)
	for _, c := range children {
		out = append(out, c...)
	}
	return out
}

// Sequence encodes a SEQUENCE whose content is the concatenation of the
// already-encoded children.
func Sequence(children ...[]byte) []byte { return constructed(TagSequence, children) }

// Set encodes a SET with the already-encoded children in the given order.
// (Proper DER SET OF ordering is the caller's responsibility; X.509 RDNs in
// this codebase always contain a single attribute.)
func Set(children ...[]byte) []byte { return constructed(TagSet, children) }

// Bool encodes a BOOLEAN.
func Bool(v bool) []byte {
	if v {
		return universal(TagBoolean, false, []byte{0xff})
	}
	return universal(TagBoolean, false, []byte{0x00})
}

// Null encodes a NULL.
func Null() []byte { return universal(TagNull, false, nil) }

// Integer encodes an INTEGER from a big.Int (which may be negative).
func Integer(v *big.Int) []byte {
	return universal(TagInteger, false, integerContent(v))
}

// Int encodes an INTEGER from an int64.
func Int(v int64) []byte { return Integer(big.NewInt(v)) }

// Enumerated encodes an ENUMERATED value (used by CRL reason codes).
func Enumerated(v int64) []byte {
	return universal(TagEnumerated, false, integerContent(big.NewInt(v)))
}

func integerContent(v *big.Int) []byte {
	switch v.Sign() {
	case 0:
		return []byte{0}
	case 1:
		b := v.Bytes()
		if b[0]&0x80 != 0 {
			return append([]byte{0}, b...)
		}
		return b
	default:
		// Two's complement of the minimal width.
		bitLen := v.BitLen()
		width := (bitLen / 8) + 1
		mod := new(big.Int).Lsh(big.NewInt(1), uint(width*8))
		tc := new(big.Int).Add(v, mod).Bytes()
		// tc may be shorter than width if leading 0xff bytes collapsed;
		// left-pad with 0xff.
		for len(tc) < width {
			tc = append([]byte{0xff}, tc...)
		}
		// Strip redundant leading 0xff when the next byte also has the
		// sign bit set.
		for len(tc) > 1 && tc[0] == 0xff && tc[1]&0x80 != 0 {
			tc = tc[1:]
		}
		return tc
	}
}

// OctetString encodes an OCTET STRING.
func OctetString(b []byte) []byte { return universal(TagOctetString, false, b) }

// BitString encodes a BIT STRING with no unused bits — the usual case for
// wrapped public keys and signatures.
func BitString(b []byte) []byte {
	return universal(TagBitString, false, append([]byte{0}, b...))
}

// NamedBitString encodes a BIT STRING from individual bits (bit 0 is the
// most significant bit of the first byte), trimming trailing zero bits as
// DER requires for named bit lists such as KeyUsage.
func NamedBitString(bits []bool) []byte {
	last := -1
	for i, b := range bits {
		if b {
			last = i
		}
	}
	if last < 0 {
		return universal(TagBitString, false, []byte{0})
	}
	nBytes := last/8 + 1
	content := make([]byte, 1+nBytes)
	content[0] = byte(7 - last%8) // unused bits in final octet
	for i := 0; i <= last; i++ {
		if bits[i] {
			content[1+i/8] |= 0x80 >> (i % 8)
		}
	}
	return universal(TagBitString, false, content)
}

// PrintableString encodes a PrintableString.
func PrintableString(s string) []byte {
	return universal(TagPrintableString, false, []byte(s))
}

// UTF8String encodes a UTF8String.
func UTF8String(s string) []byte {
	return universal(TagUTF8String, false, []byte(s))
}

// Time encodes t using X.509's rule: UTCTime for years in [1950, 2049],
// GeneralizedTime otherwise.
func Time(t time.Time) []byte {
	t = t.UTC()
	if y := t.Year(); y >= 1950 && y < 2050 {
		return universal(TagUTCTime, false, []byte(t.Format("060102150405Z")))
	}
	return universal(TagGeneralizedTime, false, []byte(t.Format("20060102150405Z")))
}

// GeneralizedTime encodes t as a GeneralizedTime regardless of year —
// required by OCSP, whose timestamps are always GeneralizedTime (RFC 6960).
func GeneralizedTime(t time.Time) []byte {
	return universal(TagGeneralizedTime, false, []byte(t.UTC().Format("20060102150405Z")))
}

// Explicit wraps already-encoded inner TLV(s) in a constructed
// context-specific tag [n].
func Explicit(n int, inner ...[]byte) []byte {
	return TLV(Header{Class: ClassContextSpecific, Tag: n, Constructed: true}, bytes.Join(inner, nil))
}

// Implicit re-tags the given content bytes as a context-specific [n]
// primitive (constructed=false) or constructed value.
func Implicit(n int, constructed bool, content []byte) []byte {
	return TLV(Header{Class: ClassContextSpecific, Tag: n, Constructed: constructed}, content)
}

// --- Decoding ---

// SyntaxError describes a DER parse failure with byte-offset context.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("der: offset %d: %s", e.Offset, e.Msg)
}

func syntaxErr(off int, format string, args ...interface{}) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// ErrTruncated is wrapped by parse errors caused by input ending early.
var ErrTruncated = errors.New("truncated input")

// Parse decodes the first TLV in data and returns it along with the
// remaining bytes.
func Parse(data []byte) (Value, []byte, error) {
	v, used, err := parseAt(data, 0)
	if err != nil {
		return Value{}, nil, err
	}
	return v, data[used:], nil
}

// ParseAll decodes all TLVs in data, failing on trailing garbage. A
// first pass over the headers counts the TLVs (and meets any error), so
// the result is allocated once at its final size.
func ParseAll(data []byte) ([]Value, error) {
	n := 0
	for off := 0; off < len(data); n++ {
		_, used, err := parseAt(data[off:], off)
		if err != nil {
			return nil, err
		}
		off += used
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Value, n)
	off := 0
	for i := range out {
		var used int
		out[i], used, _ = parseAt(data[off:], off)
		off += used
	}
	return out, nil
}

// parseAt parses one TLV at data[0:], reporting errors relative to
// absolute offset base. It returns the value and the number of bytes
// consumed.
func parseAt(data []byte, base int) (Value, int, error) {
	if len(data) == 0 {
		return Value{}, 0, syntaxErr(base, "empty input: %v", ErrTruncated)
	}
	ident := data[0]
	h := Header{
		Class:       Class(ident >> 6),
		Constructed: ident&0x20 != 0,
	}
	pos := 1
	if tag := int(ident & 0x1f); tag < 31 {
		h.Tag = tag
	} else {
		// High-tag-number form.
		t := 0
		for {
			if pos >= len(data) {
				return Value{}, 0, syntaxErr(base+pos, "high tag: %v", ErrTruncated)
			}
			b := data[pos]
			pos++
			if t > 1<<23 {
				return Value{}, 0, syntaxErr(base+pos, "tag number too large")
			}
			t = t<<7 | int(b&0x7f)
			if b&0x80 == 0 {
				break
			}
		}
		if t < 31 {
			return Value{}, 0, syntaxErr(base+1, "non-minimal high-tag-number form")
		}
		h.Tag = t
	}
	if pos >= len(data) {
		return Value{}, 0, syntaxErr(base+pos, "missing length: %v", ErrTruncated)
	}
	lb := data[pos]
	pos++
	var length int
	switch {
	case lb < 0x80:
		length = int(lb)
	case lb == 0x80:
		return Value{}, 0, syntaxErr(base+pos-1, "indefinite length not allowed in DER")
	default:
		n := int(lb & 0x7f)
		if n > 4 {
			return Value{}, 0, syntaxErr(base+pos-1, "length of length %d too large", n)
		}
		if pos+n > len(data) {
			return Value{}, 0, syntaxErr(base+pos, "length octets: %v", ErrTruncated)
		}
		for i := 0; i < n; i++ {
			length = length<<8 | int(data[pos+i])
		}
		if data[pos] == 0 {
			return Value{}, 0, syntaxErr(base+pos, "non-minimal length encoding (leading zero)")
		}
		if length < 0x80 || (n > 1 && length < 1<<((n-1)*8)) {
			return Value{}, 0, syntaxErr(base+pos, "non-minimal length encoding")
		}
		pos += n
	}
	if length < 0 || pos+length > len(data) {
		return Value{}, 0, syntaxErr(base+pos, "content of %d bytes: %v", length, ErrTruncated)
	}
	return Value{
		Header:  h,
		Content: data[pos : pos+length],
		Full:    data[:pos+length],
	}, pos + length, nil
}

// expect verifies the value has the given universal tag.
func (v Value) expect(tag int, constructed bool) error {
	if v.Class != ClassUniversal || v.Tag != tag || v.Constructed != constructed {
		return fmt.Errorf("der: expected universal tag %d (constructed=%t), got %s", tag, constructed, v.Header)
	}
	return nil
}

// IsContext reports whether v is a context-specific value with tag n.
func (v Value) IsContext(n int) bool {
	return v.Class == ClassContextSpecific && v.Tag == n
}

// Children parses the contents of a constructed value into its child TLVs.
func (v Value) Children() ([]Value, error) {
	if !v.Constructed {
		return nil, fmt.Errorf("der: Children of primitive value (%s)", v.Header)
	}
	return ParseAll(v.Content)
}

// Sequence returns the children of a SEQUENCE value.
func (v Value) Sequence() ([]Value, error) {
	if err := v.expect(TagSequence, true); err != nil {
		return nil, err
	}
	return ParseAll(v.Content)
}

// SetChildren returns the children of a SET value.
func (v Value) SetChildren() ([]Value, error) {
	if err := v.expect(TagSet, true); err != nil {
		return nil, err
	}
	return ParseAll(v.Content)
}

// Integer decodes an INTEGER into a big.Int.
func (v Value) Integer() (*big.Int, error) {
	if err := v.expect(TagInteger, false); err != nil {
		return nil, err
	}
	return intContent(v.Content)
}

// Enumerated decodes an ENUMERATED into an int64 without allocating.
func (v Value) Enumerated() (int64, error) {
	if err := v.expect(TagEnumerated, false); err != nil {
		return 0, err
	}
	i, fits, err := intContentInt64(v.Content)
	if err != nil {
		return 0, err
	}
	if !fits {
		return 0, errEnumRange
	}
	return i, nil
}

func intContent(c []byte) (*big.Int, error) {
	if err := checkIntContent(c); err != nil {
		return nil, err
	}
	out := new(big.Int).SetBytes(c)
	if c[0]&0x80 != 0 {
		mod := new(big.Int).Lsh(big.NewInt(1), uint(len(c)*8))
		out.Sub(out, mod)
	}
	return out, nil
}

// Int64 decodes an INTEGER that must fit an int64, without allocating.
func (v Value) Int64() (int64, error) {
	if err := v.expect(TagInteger, false); err != nil {
		return 0, err
	}
	i, fits, err := intContentInt64(v.Content)
	if err != nil {
		return 0, err
	}
	if !fits {
		return 0, errIntRange
	}
	return i, nil
}

// Bool decodes a BOOLEAN. DER requires TRUE to be exactly 0xff.
func (v Value) Bool() (bool, error) {
	if err := v.expect(TagBoolean, false); err != nil {
		return false, err
	}
	if len(v.Content) != 1 {
		return false, errors.New("der: boolean must be one byte")
	}
	switch v.Content[0] {
	case 0x00:
		return false, nil
	case 0xff:
		return true, nil
	default:
		return false, fmt.Errorf("der: boolean value 0x%02x is not DER", v.Content[0])
	}
}

// OctetString returns the content of an OCTET STRING.
func (v Value) OctetString() ([]byte, error) {
	if err := v.expect(TagOctetString, false); err != nil {
		return nil, err
	}
	return v.Content, nil
}

// BitString returns the bytes of a BIT STRING together with the count of
// unused trailing bits.
func (v Value) BitString() (bits []byte, unused int, err error) {
	if err := v.expect(TagBitString, false); err != nil {
		return nil, 0, err
	}
	if len(v.Content) == 0 {
		return nil, 0, errors.New("der: empty bit string")
	}
	unused = int(v.Content[0])
	if unused > 7 || (len(v.Content) == 1 && unused != 0) {
		return nil, 0, fmt.Errorf("der: invalid unused-bit count %d", unused)
	}
	return v.Content[1:], unused, nil
}

// NamedBits decodes a BIT STRING as a named-bit list: result[i] reports
// whether bit i is set.
func (v Value) NamedBits() ([]bool, error) {
	bytesVal, unused, err := v.BitString()
	if err != nil {
		return nil, err
	}
	n := len(bytesVal)*8 - unused
	if n < 0 {
		return nil, errors.New("der: unused bits exceed content")
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = bytesVal[i/8]&(0x80>>(i%8)) != 0
	}
	return out, nil
}

// DecodeString returns the text of any of the supported string types
// (PrintableString, UTF8String, IA5String).
func (v Value) DecodeString() (string, error) {
	if v.Class != ClassUniversal || v.Constructed {
		return "", fmt.Errorf("der: not a string type (%s)", v.Header)
	}
	switch v.Tag {
	case TagPrintableString, TagUTF8String, TagIA5String:
		return string(v.Content), nil
	default:
		return "", fmt.Errorf("der: tag %d is not a supported string type", v.Tag)
	}
}

// timeSlow is the reference timestamp decoder: strict time.Parse
// validation, one allocation for the string conversion. Value.Time (in
// stream.go) routes canonical encodings around it.
func (v Value) timeSlow() (time.Time, error) {
	if v.Class != ClassUniversal || v.Constructed {
		return time.Time{}, fmt.Errorf("der: not a time type (%s)", v.Header)
	}
	s := string(v.Content)
	switch v.Tag {
	case TagUTCTime:
		t, err := time.Parse("060102150405Z", s)
		if err != nil {
			return time.Time{}, fmt.Errorf("der: bad UTCTime %q: %v", s, err)
		}
		// RFC 5280: YY in [50, 99] means 19YY; [00, 49] means 20YY.
		if t.Year() >= 2050 {
			t = t.AddDate(-100, 0, 0)
		}
		return t, nil
	case TagGeneralizedTime:
		t, err := time.Parse("20060102150405Z", s)
		if err != nil {
			return time.Time{}, fmt.Errorf("der: bad GeneralizedTime %q: %v", s, err)
		}
		return t, nil
	default:
		return time.Time{}, fmt.Errorf("der: tag %d is not a time type", v.Tag)
	}
}
