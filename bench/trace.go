package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Start  int64
	End    int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds the spans of one traced workload run in memory. Spans
// are recorded on lanes, one per goroutine, so recording never locks.
// A nil *lane records nothing, which is how the untraced run shares the
// workload code with the traced one.
type tracer struct {
	workload string
	epoch    time.Time
	lanes    []*lane
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// lane is a single goroutine's span stack.
type lane struct {
	t     *tracer
	base  int64 // IDs on this lane are base+1, base+2, ...
	root  int64 // parent of the lane's outermost spans
	spans []span
	open  []int // indices into spans, innermost last
	// limit, when positive, stops begin from recording once the lane
	// holds that many spans (per-request lanes would otherwise grow
	// without bound over a timed window).
	limit int
	// skipped counts begin calls dropped by limit whose end is pending.
	skipped int
}

// lane returns a new lane whose outermost spans are roots. Call it only
// from the goroutine that owns the tracer.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, base: int64(len(t.lanes)+1) << 32}
	t.lanes = append(t.lanes, l)
	return l
}

// fork returns a new lane for another goroutine; its outermost spans
// are children of l's innermost open span. Call it before starting the
// goroutine.
func (l *lane) fork(limit int) *lane {
	if l == nil {
		return nil
	}
	c := l.t.lane()
	c.limit = limit
	if n := len(l.open); n > 0 {
		c.root = l.spans[l.open[n-1]].ID
	}
	return c
}

func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	if l.skipped > 0 || (l.limit > 0 && len(l.spans) >= l.limit) {
		l.skipped++
		return
	}
	parent := l.root
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{
		ID:     l.base + int64(len(l.spans)) + 1,
		Parent: parent,
		Name:   name,
		Start:  int64(time.Since(l.t.epoch)),
	})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	if l.skipped > 0 {
		l.skipped--
		return
	}
	n := len(l.open) - 1
	l.spans[l.open[n]].End = int64(time.Since(l.t.epoch))
	l.open = l.open[:n]
}

// all returns every recorded span, lanes in creation order.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	spans []span
	self  map[int64]time.Duration
}

func (t *tracer) stats() *spanStats {
	spans := t.all()
	return &spanStats{spans: spans, self: selfTimes(spans)}
}

// durations returns the durations, in seconds, of every span with the
// given name, in recording order.
func (st *spanStats) durations(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// total returns the summed duration in seconds and count of the named
// spans.
func (st *spanStats) total(name string) (seconds float64, n int) {
	for _, d := range st.durations(name) {
		seconds += d
		n++
	}
	return seconds, n
}

// selfOf returns the self times, in seconds, of the named spans.
func (st *spanStats) selfOf(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, st.self[s.ID].Seconds())
		}
	}
	return out
}

// selfUnder sums the self time, in seconds, of every span below (not
// including) the spans called root whose name satisfies match.
func (st *spanStats) selfUnder(root string, match func(name string) bool) float64 {
	under := make(map[int64]bool)
	var sum float64
	// Lanes are appended in fork order and spans in begin order, so a
	// parent always precedes its children.
	for _, s := range st.spans {
		if s.Name == root {
			under[s.ID] = true
			continue
		}
		if under[s.Parent] {
			under[s.ID] = true
			if match(s.Name) {
				sum += st.self[s.ID].Seconds()
			}
		}
	}
	return sum
}

// layerOf is the package a span's time is charged to: the part of its
// name before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores the spans as one JSON document, a span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", t.workload)
	first := true
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"workload\":%q}",
				s.ID, s.Parent, s.Name, s.Start, s.End, t.workload)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
