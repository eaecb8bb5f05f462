package der

import (
	"errors"
	"time"
)

// This file is the streaming half of the codec: a cursor that walks TLV
// structures over the raw buffer without copying or materializing child
// slices, plus allocation-free accessors for the value types that appear
// once per CRL entry (INTEGER magnitudes, ENUMERATED codes, timestamps).
// Parsing a revoked-certificate entry through these paths performs no heap
// allocation; Heartbleed-scale CRLs (§5.2 of the paper, GoDaddy's ~41 MB
// list) are why that matters.

// Cursor iterates over a concatenation of TLVs (typically the content of a
// constructed value) without allocating: each Next returns a Value whose
// Content and Full alias the underlying buffer.
type Cursor struct {
	rest []byte
	off  int
}

// SequenceCursor returns a cursor over the children of a SEQUENCE value.
// Unlike Sequence it does not materialize a []Value.
func (v Value) SequenceCursor() (Cursor, error) {
	if err := v.expect(TagSequence, true); err != nil {
		return Cursor{}, err
	}
	return Cursor{rest: v.Content}, nil
}

// More reports whether any bytes remain to be parsed.
func (c *Cursor) More() bool { return len(c.rest) > 0 }

// Next parses and returns the next TLV. Errors report offsets relative to
// the buffer the cursor was created over.
func (c *Cursor) Next() (Value, error) {
	v, used, err := parseAt(c.rest, c.off)
	if err != nil {
		return Value{}, err
	}
	c.rest = c.rest[used:]
	c.off += used
	return v, nil
}

// NumChildren counts the TLVs in a constructed value's content without
// materializing them — one header parse per child, no recursion.
func (v Value) NumChildren() (int, error) {
	if !v.Constructed {
		return 0, errors.New("der: NumChildren of primitive value")
	}
	cur := Cursor{rest: v.Content}
	n := 0
	for cur.More() {
		if _, err := cur.Next(); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

var (
	errEmptyInt      = errors.New("der: empty integer")
	errLeadingZeros  = errors.New("der: non-minimal integer (leading zero)")
	errLeadingOnes   = errors.New("der: non-minimal integer (leading ones)")
	errIntRange      = errors.New("der: integer out of int64 range")
	errEnumRange     = errors.New("der: enumerated value out of int64 range")
	errNotTimeType   = errors.New("der: not a time type")
	errExpectInteger = errors.New("der: expected universal tag 2 (constructed=false)")
)

// checkIntContent applies DER's minimal-encoding rules to INTEGER /
// ENUMERATED content bytes.
func checkIntContent(c []byte) error {
	if len(c) == 0 {
		return errEmptyInt
	}
	if len(c) > 1 {
		if c[0] == 0 && c[1]&0x80 == 0 {
			return errLeadingZeros
		}
		if c[0] == 0xff && c[1]&0x80 != 0 {
			return errLeadingOnes
		}
	}
	return nil
}

// intContentInt64 decodes minimal two's-complement content into an int64.
// fits is false when the value is valid DER but does not fit in 64 bits.
func intContentInt64(c []byte) (v int64, fits bool, err error) {
	if err := checkIntContent(c); err != nil {
		return 0, false, err
	}
	// A minimal encoding longer than 8 bytes is outside int64 by
	// construction (9 bytes means |v| >= 2^63 positive or < -2^63).
	if len(c) > 8 {
		return 0, false, nil
	}
	if c[0]&0x80 != 0 {
		v = -1
	}
	for _, b := range c {
		v = v<<8 | int64(b)
	}
	return v, true, nil
}

// IntegerBytes returns the big-endian magnitude of a non-negative INTEGER
// — the same bytes big.Int.Bytes would produce (empty for zero) — as a
// subslice of the input, with no allocation. neg reports a negative
// INTEGER, for which callers needing the value must fall back to Integer.
func (v Value) IntegerBytes() (mag []byte, neg bool, err error) {
	if v.Class != ClassUniversal || v.Tag != TagInteger || v.Constructed {
		return nil, false, errExpectInteger
	}
	c := v.Content
	if err := checkIntContent(c); err != nil {
		return nil, false, err
	}
	if c[0]&0x80 != 0 {
		return nil, true, nil
	}
	if c[0] == 0 {
		// Either the value zero (single byte) or a sign pad before a
		// high-bit magnitude; both strip to the minimal magnitude.
		c = c[1:]
	}
	return c, false, nil
}

// Timestamp formats and their content lengths; shared with the builder.
const (
	utcTimeFormat         = "060102150405Z"
	generalizedTimeFormat = "20060102150405Z"
)

// Time decodes a UTCTime or GeneralizedTime. Canonical timestamps (the
// only kind the DER encoder emits) take an allocation-free fast path; any
// input the fast path cannot faithfully round-trip falls back to the
// strict time.Parse-based decoder so accept/reject behavior is unchanged.
func (v Value) Time() (time.Time, error) {
	if v.Class == ClassUniversal && !v.Constructed {
		switch v.Tag {
		case TagUTCTime:
			if t, ok := fastTime(v.Content, true); ok {
				return t, nil
			}
		case TagGeneralizedTime:
			if t, ok := fastTime(v.Content, false); ok {
				return t, nil
			}
		}
	}
	return v.timeSlow()
}

// fastTime decodes a fixed-width YYMMDDHHMMSSZ / YYYYMMDDHHMMSSZ
// timestamp whose fields are all in range for a real instant: month 1-12,
// day within that month of that year, hour below 24, minute and second
// below 60. That is exactly the set of encodings time.Date reproduces
// unchanged; anything else (wrong digits, Feb 30, a leap second, ...) is
// left to the slow path's validation.
func fastTime(c []byte, utc bool) (time.Time, bool) {
	want := 15
	if utc {
		want = 13
	}
	if len(c) != want || c[want-1] != 'Z' {
		return time.Time{}, false
	}
	// The pairs before the 'Z': century (GeneralizedTime only), year,
	// month, day, hour, minute, second. A non-digit reads as -1.
	var f [7]int
	n := 0
	for i := 0; i < want-1; i += 2 {
		if f[n] = digits2(c, i); f[n] < 0 {
			return time.Time{}, false
		}
		n++
	}
	var year int
	if utc {
		// RFC 5280: YY in [50, 99] means 19YY; [00, 49] means 20YY.
		if year = 2000 + f[0]; year >= 2050 {
			year -= 100
		}
	} else {
		year = f[0]*100 + f[1]
	}
	month, day, hour, min, sec := f[n-5], f[n-4], f[n-3], f[n-2], f[n-1]
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC), true
}

// daysIn returns the length of a month (1-12) in the proleptic Gregorian
// calendar the time package uses.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// digits2 decodes two ASCII digits at c[i:], returning -1 on non-digits.
func digits2(c []byte, i int) int {
	hi, lo := c[i]-'0', c[i+1]-'0'
	if hi > 9 || lo > 9 {
		return -1
	}
	return int(hi)*10 + int(lo)
}
