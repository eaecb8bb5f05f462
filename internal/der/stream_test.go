package der

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCursorWalksSequence(t *testing.T) {
	raw := Sequence(Int(1), Int(2), OctetString([]byte("abc")), Sequence(Int(3)))
	top, _, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := top.SequenceCursor()
	if err != nil {
		t.Fatal(err)
	}
	var tags []int
	for c.More() {
		v, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, v.Tag)
	}
	want := []int{TagInteger, TagInteger, TagOctetString, TagSequence}
	if len(tags) != len(want) {
		t.Fatalf("tags = %v", tags)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}
	n, err := top.NumChildren()
	if err != nil || n != 4 {
		t.Fatalf("NumChildren = %d, %v", n, err)
	}
}

func TestCursorRejectsNonSequence(t *testing.T) {
	raw := Int(5)
	top, _, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.SequenceCursor(); err == nil {
		t.Error("cursor over a primitive INTEGER should fail")
	}
}

// Cursor iteration must agree with the materializing Children on every
// constructed value, including truncated/garbled ones.
func TestCursorMatchesChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seed := Sequence(Int(1), Sequence(Int(2), Int(3)), OctetString([]byte{1, 2, 3, 4}))
	for i := 0; i < 5000; i++ {
		data := append([]byte(nil), seed...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		top, _, err := Parse(data)
		if err != nil || !top.Constructed {
			continue
		}
		kids, kerr := top.Children()
		var cursorKids []Value
		var cerr error
		c := Cursor{rest: top.Content}
		for c.More() {
			v, err := c.Next()
			if err != nil {
				cerr = err
				break
			}
			cursorKids = append(cursorKids, v)
		}
		if (kerr == nil) != (cerr == nil) {
			t.Fatalf("Children err %v, Cursor err %v on %x", kerr, cerr, data)
		}
		if kerr != nil {
			continue
		}
		if len(kids) != len(cursorKids) {
			t.Fatalf("Children %d, Cursor %d on %x", len(kids), len(cursorKids), data)
		}
		for j := range kids {
			if !bytes.Equal(kids[j].Full, cursorKids[j].Full) {
				t.Fatalf("child %d differs on %x", j, data)
			}
		}
	}
}

func TestIntegerBytes(t *testing.T) {
	cases := []struct {
		val  *big.Int
		neg  bool
		want []byte
	}{
		{big.NewInt(0), false, []byte{}},
		{big.NewInt(1), false, []byte{1}},
		{big.NewInt(127), false, []byte{127}},
		{big.NewInt(128), false, []byte{128}},
		{big.NewInt(256), false, []byte{1, 0}},
		{new(big.Int).Lsh(big.NewInt(1), 64), false, append([]byte{1}, make([]byte, 8)...)},
		{big.NewInt(-1), true, nil},
		{big.NewInt(-129), true, nil},
	}
	for _, tc := range cases {
		raw := Integer(tc.val)
		top, _, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		mag, neg, err := top.IntegerBytes()
		if err != nil {
			t.Fatalf("IntegerBytes(%v): %v", tc.val, err)
		}
		if neg != tc.neg {
			t.Errorf("IntegerBytes(%v) neg = %v", tc.val, neg)
		}
		if !tc.neg && !bytes.Equal(mag, tc.want) {
			t.Errorf("IntegerBytes(%v) = %x, want %x", tc.val, mag, tc.want)
		}
		// Non-negative magnitudes must equal big.Int.Bytes().
		if !tc.neg && !bytes.Equal(mag, tc.val.Bytes()) {
			t.Errorf("IntegerBytes(%v) = %x, big.Bytes = %x", tc.val, mag, tc.val.Bytes())
		}
	}
}

// IntegerBytes must accept exactly what Integer accepts.
func TestIntegerBytesParityProperty(t *testing.T) {
	f := func(content []byte) bool {
		if len(content) > 40 {
			content = content[:40]
		}
		raw := append([]byte{byte(TagInteger), byte(len(content))}, content...)
		top, _, err := Parse(raw)
		if err != nil {
			return true
		}
		i, ierr := top.Integer()
		mag, neg, berr := top.IntegerBytes()
		if (ierr == nil) != (berr == nil) {
			return false
		}
		if ierr != nil {
			return true
		}
		if neg != (i.Sign() < 0) {
			return false
		}
		if !neg && !bytes.Equal(mag, i.Bytes()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// The fast timestamp decoder must agree with the time.Parse-based slow
// path on every input: same accept/reject, same instant.
func TestTimeFastPathParity(t *testing.T) {
	check := func(raw []byte) {
		top, _, err := Parse(raw)
		if err != nil {
			return
		}
		fast, ferr := top.Time()
		slow, serr := top.timeSlow()
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("%x: fast err %v, slow err %v", raw, ferr, serr)
		}
		if ferr == nil && !fast.Equal(slow) {
			t.Fatalf("%x: fast %v, slow %v", raw, fast, slow)
		}
	}
	// Canonical encodings across the calendar, both time types.
	times := []time.Time{
		time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2014, 10, 2, 12, 30, 45, 0, time.UTC),
		time.Date(2049, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2100, 6, 15, 6, 7, 8, 0, time.UTC),
	}
	for _, tm := range times {
		check(Time(tm))
	}
	// Hand-built malformed and boundary contents through both tags.
	contents := []string{
		"", "Z", "141002123045Z", "141002123045", "141332123045Z",
		"140931123045Z", "140229123045Z", "120229123045Z", "141002243045Z",
		"141002126045Z", "141002123060Z", "20141002123045Z", "99991231235959Z",
		"00000101000000Z", "20140229123045Z", "20120229123045Z", "141002123045z",
		"14100212304 Z", "+41002123045Z", "1410021230456Z",
	}
	for _, c := range contents {
		for _, tag := range []int{TagUTCTime, TagGeneralizedTime} {
			raw := append([]byte{byte(tag), byte(len(c))}, c...)
			check(raw)
		}
	}
	// Every month and day number, in range or not, over common, leap and
	// century years, and the edges of the clock fields. On all-digit
	// fixed-width input the fast path must also be the one that answers:
	// it accepts exactly what the slow path accepts.
	for _, year := range []int{1900, 1999, 2000, 2012, 2014, 2049, 2100, 2400} {
		for month := 0; month <= 13; month++ {
			for day := 0; day <= 32; day++ {
				for _, clock := range []string{"000000", "235959", "240000", "236000", "235960"} {
					c := fmt.Sprintf("%04d%02d%02d%sZ", year, month, day, clock)
					for _, tag := range []int{TagUTCTime, TagGeneralizedTime} {
						content := c
						if tag == TagUTCTime {
							content = c[2:]
						}
						raw := append([]byte{byte(tag), byte(len(content))}, content...)
						check(raw)
						top, _, _ := Parse(raw)
						_, serr := top.timeSlow()
						if _, ok := fastTime(top.Content, tag == TagUTCTime); ok != (serr == nil) {
							t.Fatalf("%q (tag %d): fast path accepts=%t, slow path err=%v", content, tag, ok, serr)
						}
					}
				}
			}
		}
	}
	// Random mutations of valid encodings.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		raw := append([]byte(nil), Time(times[rng.Intn(len(times))])...)
		for flips := rng.Intn(3) + 1; flips > 0; flips-- {
			raw[rng.Intn(len(raw))] ^= byte(1 << rng.Intn(8))
		}
		check(raw)
	}
}

func TestCursorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	raw := Sequence(Int(1), Int(2), Int(3), OctetString([]byte("xyz")))
	top, _, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c, err := top.SequenceCursor()
		if err != nil {
			t.Fatal(err)
		}
		for c.More() {
			v, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := v.IntegerBytes(); err != nil {
				if _, err := v.OctetString(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("cursor walk allocated %.0f times, want 0", allocs)
	}
}

func TestTimeFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	raw := Time(time.Date(2014, 10, 2, 12, 30, 45, 0, time.UTC))
	top, _, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := top.Time(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fast time decode allocated %.0f times, want 0", allocs)
	}
}
