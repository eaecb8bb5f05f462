package simtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDate(t *testing.T) {
	d := Date(2014, time.April, 7)
	if d.Hour() != 0 || d.Minute() != 0 || d.Location() != time.UTC {
		t.Fatalf("Date not midnight UTC: %v", d)
	}
	if d.Weekday() != time.Monday {
		t.Errorf("Heartbleed disclosure was a Monday, got %v", d.Weekday())
	}
}

func TestDaysBetween(t *testing.T) {
	cases := []struct {
		a, b time.Time
		want int
	}{
		{Date(2014, 1, 1), Date(2014, 1, 1), 0},
		{Date(2014, 1, 1), Date(2014, 1, 2), 1},
		{Date(2014, 1, 2), Date(2014, 1, 1), -1},
		{Date(2013, 10, 30), Date(2015, 3, 30), 516},
		{Date(2014, 2, 28), Date(2014, 3, 1), 1}, // 2014 not a leap year
		{Date(2016, 2, 28), Date(2016, 3, 1), 2}, // 2016 is
	}
	for _, c := range cases {
		if got := DaysBetween(c.a, c.b); got != c.want {
			t.Errorf("DaysBetween(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(ScanStart)
	if !c.Now().Equal(ScanStart) {
		t.Fatalf("new clock at %v, want %v", c.Now(), ScanStart)
	}
	c.Advance(48 * time.Hour)
	if got := DaysBetween(ScanStart, c.Now()); got != 2 {
		t.Fatalf("after Advance(48h): %d days elapsed, want 2", got)
	}
	c.AdvanceTo(Heartbleed)
	if !c.Now().Equal(Heartbleed) {
		t.Fatalf("AdvanceTo: clock at %v", c.Now())
	}
}

func TestClockPanicsOnBackwardsTime(t *testing.T) {
	c := NewClock(Heartbleed)
	mustPanic(t, "Advance(-1)", func() { c.Advance(-time.Second) })
	mustPanic(t, "AdvanceTo(past)", func() { c.AdvanceTo(ScanStart) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestClockConcurrentReaders: Now takes no lock, so what keeps a reader
// from seeing time step back is that every instant is published whole.
// Four readers watch a writer make 100,000 steps; the clock must land on
// the exact sum.
func TestClockConcurrentReaders(t *testing.T) {
	const steps = 100_000
	c := NewClock(ScanStart)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for {
				now := c.Now()
				if now.Before(last) {
					t.Errorf("clock stepped back from %v to %v", last, now)
					return
				}
				last = now
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for j := 0; j < steps; j++ {
		c.Advance(time.Duration(j%7) * time.Second)
	}
	close(done)
	wg.Wait()
	var sum time.Duration
	for j := 0; j < steps; j++ {
		sum += time.Duration(j%7) * time.Second
	}
	if want := ScanStart.Add(sum); !c.Now().Equal(want) {
		t.Fatalf("clock at %v after %d steps, want %v", c.Now(), steps, want)
	}
}

func TestScanSchedule(t *testing.T) {
	s := ScanSchedule()
	if len(s) != NumScans {
		t.Fatalf("got %d scans, want %d", len(s), NumScans)
	}
	if !s.First().Equal(ScanStart) {
		t.Errorf("first scan %v, want %v", s.First(), ScanStart)
	}
	if !s.Last().Equal(ScanEnd) {
		t.Errorf("last scan %v, want %v", s.Last(), ScanEnd)
	}
	// Cadence should be roughly weekly: strictly increasing, ~6-8 days apart.
	for i := 1; i < len(s); i++ {
		gap := s[i].Sub(s[i-1])
		if gap <= 6*24*time.Hour || gap >= 8*24*time.Hour {
			t.Errorf("scan gap %d = %v, want roughly weekly", i, gap)
		}
	}
}

func TestSpanEdgeCases(t *testing.T) {
	if span(ScanStart, ScanEnd, 0) != nil {
		t.Error("Span n=0 should be nil")
	}
	one := span(ScanStart, ScanEnd, 1)
	if len(one) != 1 || !one[0].Equal(ScanStart) {
		t.Errorf("Span n=1 = %v", one)
	}
	two := span(ScanStart, ScanEnd, 2)
	if !two[0].Equal(ScanStart) || !two[1].Equal(ScanEnd) {
		t.Errorf("Span n=2 = %v", two)
	}
}

func TestBetween(t *testing.T) {
	s := ScanSchedule()
	sub := s.Between(Heartbleed, ScanEnd)
	for _, inst := range sub {
		if inst.Before(Heartbleed) {
			t.Errorf("Between returned %v before %v", inst, Heartbleed)
		}
	}
	if len(sub) == 0 || len(sub) >= len(s) {
		t.Errorf("Between returned %d of %d scans", len(sub), len(s))
	}
}

func TestEmptyScheduleBounds(t *testing.T) {
	var s Schedule
	if !s.First().IsZero() || !s.Last().IsZero() {
		t.Error("empty schedule bounds should be zero times")
	}
}

func TestMonthKey(t *testing.T) {
	if got := MonthKey(Heartbleed); got != "2014-04" {
		t.Errorf("MonthKey = %q", got)
	}
}

func TestMonths(t *testing.T) {
	got := Months(Date(2014, time.November, 15), Date(2015, time.February, 3))
	want := []string{"2014-11", "2014-12", "2015-01", "2015-02"}
	if len(got) != len(want) {
		t.Fatalf("Months = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Months[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if m := Months(ScanEnd, ScanStart); m != nil {
		t.Errorf("reversed Months = %v, want nil", m)
	}
}

// Property: a span schedule is always non-decreasing and bounded by its
// endpoints.
func TestSpanMonotoneProperty(t *testing.T) {
	f := func(days uint16, n uint8) bool {
		start := ScanStart
		end := start.Add(time.Duration(days) * 24 * time.Hour)
		s := span(start, end, int(n%100))
		for i, inst := range s {
			if inst.Before(start) || inst.After(end) {
				return false
			}
			if i > 0 && inst.Before(s[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DaysBetween is antisymmetric and additive over midpoints.
func TestDaysBetweenProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		ta := ScanStart.Add(time.Duration(a) * 24 * time.Hour)
		tb := ScanStart.Add(time.Duration(b) * 24 * time.Hour)
		return DaysBetween(ta, tb) == -DaysBetween(tb, ta) &&
			DaysBetween(ta, tb) == int(b)-int(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
