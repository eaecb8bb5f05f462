package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// studyWorkload repeats what a reader reproducing the paper runs: the
// whole measurement study, then the paper's experiments one by one.
//
// It builds its world inside the timed repetition, so there is nothing
// to set up but the process itself: set-up is one untimed repetition,
// which grows the heap and fills the key pools, and whose fingerprint
// every timed repetition must reproduce.
type studyWorkload struct {
	e     *env
	scale float64
	lat   *latency
	want  fingerprint
	// findingsOK is the last repetition's count of SHAPE-OK findings.
	// Informational: CRLSet contents depend on the random CA keys, so
	// fig8 and fig10 flip between runs of one seed.
	findingsOK int
	// oneProc is the wall time of the traced run's single-processor
	// repetition.
	oneProc float64
}

// pinnedStudy is the fingerprint of seed 1 at the benchmark's scale.
var pinnedStudy = fingerprint{RevDBDigest: 0x87e8bce73fc85d05, RevDBSize: 6430, CorpusSize: 12467, Scans: 74, CrawlDays: 181}

func newStudy(e *env) instance {
	s := &studyWorkload{e: e, scale: 0.002, lat: newLatency(1)}
	if e.tiny {
		s.scale = 0.0005
	}
	return s
}

func (s *studyWorkload) latency() *latency { return s.lat }

func (s *studyWorkload) setUp() (float64, error) {
	t0 := time.Now()
	run, err := runStudy(nil, s.scale, s.e.seed)
	if err != nil {
		return 0, err
	}
	if _, failed := s.experiments(nil, run, nil); failed != 0 {
		return 0, fmt.Errorf("%d experiments failed", failed)
	}
	s.want = run.fingerprint()
	if err := run.close(); err != nil {
		return 0, err
	}
	if s.want.Scans != 74 || s.want.CrawlDays != 181 {
		return 0, fmt.Errorf("study ingested %d scans and %d crawl days, want 74 and 181", s.want.Scans, s.want.CrawlDays)
	}
	if s.e.seed == 1 && !s.e.tiny && s.want != pinnedStudy {
		return 0, fmt.Errorf("seed 1 fingerprint %+v, pinned %+v", s.want, pinnedStudy)
	}
	return time.Since(t0).Seconds(), nil
}

// experiments calls the 23 paper experiments one by one; each call is
// one operation, and its latency goes to lat when lat is non-nil.
func (s *studyWorkload) experiments(ln *lane, run *studyRun, lat *latency) (ops, failed int64) {
	s.findingsOK = 0
	for _, exp := range run.paperExperiments() {
		if s.e.tiny && !exp.readsWorld {
			continue // a second each at any scale: too slow for a test
		}
		ln.begin("experiments." + exp.id)
		t0 := time.Now()
		ok, err := exp.run()
		d := time.Since(t0)
		ln.end()
		if lat != nil {
			lat.record(0, d)
		}
		ops++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "study: %s: %v\n", exp.id, err)
		}
		s.findingsOK += ok
	}
	return ops, failed
}

func (s *studyWorkload) unit(ln *lane) (ops, failed int64, err error) {
	var run *studyRun
	if ln == nil {
		run, err = runStudy(nil, s.scale, s.e.seed)
	} else {
		run, err = runStudyStaged(ln, s.scale, s.e.seed)
	}
	if err != nil {
		return 0, 0, err
	}
	ops, failed = s.experiments(ln, run, s.lat)
	ops++ // the study itself
	if got := run.fingerprint(); got != s.want {
		failed++
		fmt.Fprintf(os.Stderr, "study: fingerprint %+v, first repetition had %+v\n", got, s.want)
	}
	// Drop the world before the next repetition builds its own.
	ln.begin("workload.World.Close")
	err = run.close()
	ln.end()
	return ops, failed, err
}

func (s *studyWorkload) probes(ln *lane) (map[string]float64, error) {
	// One repetition on a single processor: the ratio to the window's
	// median is the study's scaling efficiency as a number.
	prev := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	_, failed, err := s.unit(nil)
	s.oneProc = time.Since(t0).Seconds()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	if failed != 0 {
		return nil, fmt.Errorf("single-processor repetition failed %d operations", failed)
	}

	run, err := runStudyStaged(ln, s.scale, s.e.seed)
	if err != nil {
		return nil, err
	}
	defer run.close()
	if err := os.MkdirAll(s.e.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(s.e.outDir, "segdb-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	m, err := run.studyProbes(ln, tmp, s.e.procs)
	if err != nil {
		return nil, err
	}
	m["experiments.findings_ok"] = float64(s.findingsOK)
	return m, nil
}

func (s *studyWorkload) derive(st *spanStats, m map[string]float64) {
	// The probes build one more world; only the timed repetitions count.
	units, _ := st.total("study.unit")
	n := float64(len(st.durations("study.unit")))
	under := func(name string) float64 {
		return st.selfUnder("study.unit", func(s string) bool { return s == name }) / n
	}
	m["workload.newworld_s"] = under("workload.NewWorld")
	m["workload.run_s"] = under("workload.World.Run")
	m["experiments.paper_s"] = st.selfUnder("study.unit", func(s string) bool { return layerOf(s) == "experiments" }) / n
	m["experiments.fig10_s"] = under("experiments.fig10")
	m["experiments.table2_s"] = under("experiments.table2")
	m["experiments.ablfailure_s"] = under("experiments.ablation-failure")
	m["workload.speedup_vs_1proc"] = s.oneProc / (units / n)
}
