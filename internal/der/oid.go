package der

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// OID is an ASN.1 object identifier.
type OID []uint32

// String renders the OID in dotted-decimal form.
func (o OID) String() string {
	var sb strings.Builder
	for i, arc := range o {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(uint64(arc), 10))
	}
	return sb.String()
}

// Equal reports whether two OIDs are identical.
func (o OID) Equal(other OID) bool {
	if len(o) != len(other) {
		return false
	}
	for i := range o {
		if o[i] != other[i] {
			return false
		}
	}
	return true
}

// parseOID parses a dotted-decimal OID string.
func parseOID(s string) (OID, error) {
	if s == "" {
		return nil, errors.New("der: empty OID")
	}
	parts := strings.Split(s, ".")
	if len(parts) < 2 {
		return nil, fmt.Errorf("der: OID %q needs at least two arcs", s)
	}
	out := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("der: OID %q: bad arc %q", s, p)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// MustOID parses a dotted-decimal OID and panics on error; for use with
// compile-time constants.
func MustOID(s string) OID {
	o, err := parseOID(s)
	if err != nil {
		panic(err)
	}
	return o
}

// EncodeOID encodes an OBJECT IDENTIFIER. It panics for OIDs that violate
// the structural rules (fewer than two arcs, or first arcs out of range),
// since OIDs in this codebase are compile-time constants.
func EncodeOID(o OID) []byte {
	if len(o) < 2 {
		panic("der: OID needs at least two arcs")
	}
	if o[0] > 2 || (o[0] < 2 && o[1] >= 40) {
		panic(fmt.Sprintf("der: invalid OID prefix %d.%d", o[0], o[1]))
	}
	content := appendBase128(nil, uint64(o[0])*40+uint64(o[1]))
	for _, arc := range o[2:] {
		content = appendBase128(content, uint64(arc))
	}
	return universal(TagOID, false, content)
}

func appendBase128(dst []byte, v uint64) []byte {
	var stack [10]byte
	n := 0
	for {
		stack[n] = byte(v & 0x7f)
		v >>= 7
		n++
		if v == 0 {
			break
		}
	}
	for i := n - 1; i >= 0; i-- {
		b := stack[i]
		if i > 0 {
			b |= 0x80
		}
		dst = append(dst, b)
	}
	return dst
}

// OID decodes an OBJECT IDENTIFIER value. Every arc ends on a byte with
// the top bit clear, so counting those sizes the result before decoding
// into it.
func (v Value) OID() (OID, error) {
	if err := v.expect(TagOID, false); err != nil {
		return nil, err
	}
	c := v.Content
	if len(c) == 0 {
		return nil, errors.New("der: empty OID content")
	}
	arcs := 0
	for _, b := range c {
		if b&0x80 == 0 {
			arcs++
		}
	}
	out := make(OID, 0, arcs+1)
	// An arc past uint32 is reported only once the whole content has
	// decoded, so a later malformed arc wins, as it always has.
	wide := false
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
		if b&0x80 != 0 {
			if i == len(c)-1 {
				return nil, errors.New("der: truncated OID arc")
			}
			continue
		}
		switch {
		case len(out) > 0:
			wide = wide || cur > 1<<32-1
			out = append(out, uint32(cur))
		case cur < 40:
			out = append(out, 0, uint32(cur))
		case cur < 80:
			out = append(out, 1, uint32(cur-40))
		default:
			out = append(out, 2, uint32(cur-80))
		}
		cur = 0
		started = false
	}
	if wide {
		return nil, errors.New("der: OID arc out of uint32 range")
	}
	return out, nil
}
