package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload BENCHMARK.json names at test
// size, untraced and traced, and checks what does not depend on
// scheduling: each declared metric is printed once with its unit, no
// operation fails, and the recorded spans nest.
func TestWorkloadsTiny(t *testing.T) {
	sp, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name, declared := w.Name+"/untraced", sp.EndToEnd
			if traced {
				name, declared = w.Name+"/traced", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				e := &env{
					workload: w.Name,
					seed:     7,
					seconds:  0.01,
					trace:    traced,
					tiny:     true,
					procs:    min(runtime.GOMAXPROCS(0), 4),
					outDir:   t.TempDir(),
				}
				var out bytes.Buffer
				res, err := runWorkload(e, sp, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				printed := make(map[string][]string) // metric -> units, once per line
				for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
					f := strings.Fields(line)
					if len(f) != 4 || f[0] != w.Name {
						t.Errorf("line %q is not \"workload metric value unit\"", line)
						continue
					}
					printed[f[1]] = append(printed[f[1]], f[3])
				}
				for _, m := range declared {
					if units := printed[m.Name]; len(units) != 1 || units[0] != m.Unit {
						t.Errorf("%s printed with units %v, want once with %s", m.Name, units, m.Unit)
					}
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("%s is missing from the result", m.Name)
					}
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("result holds %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				if got := printed["ops_failed"]; len(got) != 1 {
					t.Errorf("ops_failed printed %d times", len(got))
				}
				if !traced {
					for _, m := range declared {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				checkSpansNest(t, filepath.Join(e.outDir, "trace-"+w.Name+".json"), w.Name)
			})
		}
	}
}

// checkSpansNest reads a trace file back: ids are unique, every parent
// exists, and no child starts before or outlives its parent.
func checkSpansNest(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []struct {
			ID       int64  `json:"id"`
			Parent   int64  `json:"parent"`
			Name     string `json:"name"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Workload string `json:"workload"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != workload || len(file.Spans) == 0 {
		t.Fatalf("trace of %q holds %d spans", file.Workload, len(file.Spans))
	}
	type interval struct{ start, end int64 }
	byID := make(map[int64]interval, len(file.Spans))
	for _, s := range file.Spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or used twice", s.ID)
		}
		if s.End < s.Start || s.Name == "" || s.Workload != workload {
			t.Errorf("span %d %q of %q runs from %d to %d", s.ID, s.Name, s.Workload, s.Start, s.End)
		}
		byID[s.ID] = interval{s.Start, s.End}
	}
	for _, s := range file.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %q: parent %d does not exist", s.ID, s.Name, s.Parent)
		} else if s.Start < p.start || s.End > p.end {
			t.Errorf("span %d %q [%d,%d] is not inside its parent [%d,%d]", s.ID, s.Name, s.Start, s.End, p.start, p.end)
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// driver refuses a file for, and against the program.
func TestSpecWithinContract(t *testing.T) {
	sp, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup || len(sp.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s (s, lower) and at most 16 metrics, has %d", len(sp.EndToEnd))
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a by 10 ms
		{ID: 4, Parent: 2, Name: "a.child", Start: ms(10), End: ms(15)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * time.Millisecond, 2: 25 * time.Millisecond, 3: 30 * time.Millisecond, 4: 5 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
	st := &spanStats{spans: spans, self: self}
	if got := st.selfUnder("root", func(n string) bool { return layerOf(n) == "a" }); math.Abs(got-0.030) > 1e-9 {
		t.Errorf("self time of layer a under root = %v s, want 0.030", got)
	}
}

func TestLaneLimitKeepsSpansBalanced(t *testing.T) {
	tr := newTracer("w")
	root := tr.lane()
	root.begin("unit")
	ln := root.fork(2)
	for i := 0; i < 4; i++ {
		ln.begin("outer")
		ln.begin("inner")
		ln.end()
		ln.end()
	}
	root.end()
	if got := len(ln.spans); got != 2 {
		t.Fatalf("lane kept %d spans, want 2", got)
	}
	for _, s := range tr.all() {
		if s.End < s.Start || (s.Name != "unit" && s.Parent == 0) {
			t.Errorf("span %+v is open or lost its parent", s)
		}
	}
}

func TestAgree(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	write := func(wall, rate float64, failed int64) string {
		r := suiteResults{Workloads: map[string]*workloadEntry{"w": {result: result{
			Correct: failed == 0,
			Failed:  failed,
			Metrics: map[string]metric{"wall_s": {wall, "s"}, "rate": {rate, "1/s"}},
		}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(1.00, 100, 0)
	for _, c := range []struct {
		name       string
		wall, rate float64
		failed     int64
		ok         bool
		verdict    string
	}{
		{"inside the bound", 1.05, 95, 0, true, "2 agree, 0 better, 0 WORSE"},
		{"slower", 1.20, 100, 0, false, "1 agree, 0 better, 1 WORSE"},
		{"lower rate", 1.00, 80, 0, false, "1 agree, 0 better, 1 WORSE"},
		{"faster", 0.80, 120, 0, true, "0 agree, 2 better, 0 WORSE"},
		{"failed operation", 1.00, 100, 1, false, "FAILED"},
	} {
		var out bytes.Buffer
		ok, err := agreeFiles(sp, base, write(c.wall, c.rate, c.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output %q, want ok=%v and %q", c.name, ok, out.String(), c.ok, c.verdict)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	l := newLatency(1)
	for i := 1; i <= 1000; i++ {
		l.record(0, time.Duration(i)*time.Microsecond)
	}
	// Exact p50 is 500 us; a bucket is at most 1/64 wide.
	if got := l.quantileUS(0.5); got < 500*(1-1.0/64) || got > 500*(1+1.0/64) {
		t.Errorf("p50 of 1..1000 us = %v us", got)
	}
	lo, hi := l.quantileUS(0.500), l.quantileUS(0.501)
	if hi <= lo {
		t.Errorf("quantiles inside one bucket do not interpolate: %v then %v", lo, hi)
	}
}
