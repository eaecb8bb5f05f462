package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spec is BENCHMARK.json: the one place that names the workloads and
// the metrics, with their units and bounds. The program emits exactly
// what it declares.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// parent of the benchmark's directory.
func loadSpec(benchDir string) (*spec, error) {
	path := filepath.Join(benchDir, "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// findBenchDir returns the benchmark's directory: the working directory
// under `go run -C bench .` and `go test`, or ./bench from the root.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "layers.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: layers.go not found")
}

// env is one workload run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to test size.
	tiny bool
	// procs is GOMAXPROCS and the number of load-generating goroutines.
	procs  int
	outDir string
}

// instance is one workload, built for one run.
type instance interface {
	// setUp builds what the timed units run against and returns the
	// set-up time to report, in seconds.
	setUp() (float64, error)
	// unit runs one repetition of the workload's fixed amount of work
	// and returns how many operations it attempted and how many failed.
	unit(ln *lane) (ops, failed int64, err error)
	// latency is the histogram the units record operation latency in.
	latency() *latency
	// probes runs the traced run's single-layer measurements.
	probes(ln *lane) (map[string]float64, error)
}

// A workload may also verify outputs once the timed window is over,
// add per-layer metrics that come from the spans, and hold something
// that must be closed.
type (
	checker interface {
		check() (ops, failed int64, err error)
	}
	deriver interface {
		derive(st *spanStats, m map[string]float64)
	}
	closer interface{ close() error }
)

// workloads maps each name BENCHMARK.json declares to its constructor.
var workloads = map[string]func(e *env) instance{
	"study":        newStudy,
	"publish":      newPublish,
	"serve-steady": func(e *env) instance { return newServe(e, false) },
	"serve-churn":  func(e *env) instance { return newServe(e, true) },
	"heartbleed":   newHeartbleed,
	"offline":      newOffline,
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minUnits is the fewest repetitions a timed window holds, so wall_s is
// a median even when the window is shorter than three repetitions.
const minUnits = 3

// runWorkload runs one workload in this process and prints its metrics
// as "workload metric value unit" lines. The returned result is
// correct only if no operation failed and every check passed.
func runWorkload(e *env, sp *spec, out io.Writer) (*result, error) {
	mk, ok := workloads[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	inst := mk(e)
	if c, ok := inst.(closer); ok {
		defer c.close()
	}
	setup, err := inst.setUp()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// Set-up garbage is collected before the window, so that every run
	// starts its first repetition from the same heap.
	runtime.GC()

	res := &result{Metrics: make(map[string]metric)}
	var tr *tracer
	var ln *lane
	var untraced float64
	if e.trace {
		// One repetition without spans first: the traced repetition that
		// follows it is compared with it for the tracing overhead.
		t0 := time.Now()
		ops, failed, err := inst.unit(nil)
		if err != nil {
			return nil, fmt.Errorf("untraced unit: %w", err)
		}
		untraced = time.Since(t0).Seconds()
		res.Attempted += ops
		res.Failed += failed
		tr = newTracer(e.workload)
		ln = tr.lane()
	}

	atLeast := minUnits
	if e.tiny {
		atLeast = 1
	}
	// Every repetition is timed and has its own latency percentiles;
	// the run reports the medians over its repetitions, which one
	// disturbed repetition does not move.
	lat := inst.latency()
	lat.lap()
	var walls, p50s, p99s []float64
	var samples int64
	start := time.Now()
	for {
		ln.begin(e.workload + ".unit")
		t0 := time.Now()
		ops, failed, err := inst.unit(ln)
		walls = append(walls, time.Since(t0).Seconds())
		ln.end()
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", len(walls), err)
		}
		res.Attempted += ops
		res.Failed += failed
		p50, p99, n := lat.lap()
		p50s, p99s, samples = append(p50s, p50), append(p99s, p99), samples+n
		if len(walls) >= atLeast && time.Since(start).Seconds() >= e.seconds {
			break
		}
		// Each repetition starts from a collected heap, like the first:
		// peak RSS then depends on what a repetition holds and not on
		// where the collector's cycle stood when it began.
		runtime.GC()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if c, ok := inst.(checker); ok {
		ops, failed, err := c.check()
		if err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		res.Attempted += ops
		res.Failed += failed
	}
	res.Correct = res.Failed == 0

	values := map[string]float64{
		"setup_s":      setup,
		"wall_s":       median(walls),
		"peak_rss_mib": rss,
		"lat_p50_us":   median(p50s),
		"lat_p99_us":   median(p99s),
	}
	declared := sp.EndToEnd
	if e.trace {
		ln.begin(e.workload + ".probes")
		values, err = inst.probes(ln)
		ln.end()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		st := tr.stats()
		if d, ok := inst.(deriver); ok {
			d.derive(st, values)
		}
		values["bench.trace_overhead_pct"] = (walls[0]/untraced - 1) * 100
		unitName := e.workload + ".unit"
		unitTotal, _ := st.total(unitName)
		values["bench.span_coverage"] = 1 - sum(st.selfOf(unitName))/unitTotal
		values["bench.filter_share"] = st.selfUnder(unitName, func(name string) bool {
			l := layerOf(name)
			return l == "cascade" || l == "ribbon" || l == "corpus"
		}) / unitTotal
		declared = sp.PerLayer
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(e.outDir, "trace-"+e.workload+".json")); err != nil {
			return nil, err
		}
	}

	// Exactly the declared metrics, each once. A layer that does no
	// work in this workload reads 0; an end-to-end metric must exist.
	for name := range values {
		if !declares(declared, name) {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && !e.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%s %s %.6g %s\n", e.workload, m.Name, v, m.Unit)
	}
	// Every timing states its sample count: repetitions, and latencies
	// per repetition.
	fmt.Fprintf(out, "%s wall_samples %d count\n", e.workload, len(walls))
	fmt.Fprintf(out, "%s lat_samples %d count\n", e.workload, samples/int64(len(walls)))
	fmt.Fprintf(out, "%s ops %d count\n", e.workload, res.Attempted)
	fmt.Fprintf(out, "%s ops_failed %d count\n", e.workload, res.Failed)
	return res, nil
}

func declares(ms []metricSpec, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}
