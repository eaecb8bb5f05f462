// Benchworld measures the corpus engines against each other and
// maintains BENCH_pr7.json, the record of the streaming world engine's
// acceptance gates:
//
//   - digest: a seed-scale world built with the spilling streaming
//     corpus must produce byte-identical analyze output (Figure 2
//     series, dataset summary, stapling snapshot, populations,
//     lifetimes) to the same world built fully in memory;
//   - build: streaming build throughput on a 1M-certificate fixture
//     must hold at least 0.7x of the legacy in-memory engine's, with
//     the two engines' analyze digests agreeing exactly;
//   - rss: the paper-scale 38,514,130-certificate world (~190M
//     sightings) must build end to end with the streaming engine inside
//     a fixed RSS budget that the legacy in-memory engine demonstrably
//     exceeds (peaks measured in separate child processes via VmHWM).
//
// Usage:
//
//	benchworld -o BENCH_pr7.json            # full run (incl. 38.5M RSS phase)
//	benchworld -check BENCH_pr7.json -quick # CI gate (make check)
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/profiling"
	"repro/internal/revbench"
	"repro/internal/workload"
	"repro/internal/worldbench"
)

// rssBudgetBytes is the fixed resident-set budget for the paper-scale
// 38.5M-certificate build. The streaming engine must stay under it, the
// legacy in-memory engine must exceed it; both measured peaks are
// recorded. The value sits between the measured peaks (streaming ~7.6
// GiB — generator ring plus columns plus bounded resident runs — vs
// legacy ~26 GiB of retained records, histories, and sighting slices)
// with generous margin on each side so GC noise cannot flip the gate.
const rssBudgetBytes = 10 << 30 // 10 GiB

// minBuildRatio is the floor on streaming build throughput relative to
// the legacy in-memory engine.
const minBuildRatio = 0.7

// streamSpillBudget bounds resident encoded sighting runs during
// streaming benchmark builds, forcing steady spill at every fixture
// size (the paper-scale fixture encodes ~770 MB of runs in total).
const streamSpillBudget = 256 << 20

// Fixture sizes. Quick mode keeps the same shapes at sizes that finish
// in seconds; the digest and ratio gates are size-independent.
var (
	fullBuildCfg  = worldbench.Config{Certs: 1000000, Scans: 74, MaxLife: 9, Seed: 2015}
	quickBuildCfg = worldbench.Config{Certs: 150000, Scans: 40, MaxLife: 9, Seed: 2015}
	rssCfg        = worldbench.PaperScale()

	fullWorldScale  = 0.002
	quickWorldScale = 0.0005
)

type DigestReport struct {
	Scale       float64 `json:"scale"`
	Scans       int     `json:"scans"`
	Certs       int     `json:"certs"`
	SpilledSegs int     `json:"spilled_segments"`
	Match       bool    `json:"match"`
}

type BuildReport struct {
	Certs              int     `json:"certs"`
	Sightings          int64   `json:"sightings"`
	LegacyCertsPerSec  float64 `json:"legacy_certs_per_sec"`
	StreamCertsPerSec  float64 `json:"stream_certs_per_sec"`
	Ratio              float64 `json:"ratio"`
	AnalyzeDigestMatch bool    `json:"analyze_digest_match"`
}

type RSSReport struct {
	Certs               int   `json:"certs"`
	Sightings           int64 `json:"sightings"`
	BudgetBytes         int64 `json:"budget_bytes"`
	LegacyPeakBytes     int64 `json:"legacy_peak_bytes"`
	StreamPeakBytes     int64 `json:"stream_peak_bytes"`
	StreamWithinBudget  bool  `json:"stream_within_budget"`
	LegacyExceedsBudget bool  `json:"legacy_exceeds_budget"`
}

type Gates struct {
	DigestMatch      bool    `json:"digest_match"`
	BuildRatioMin    float64 `json:"build_ratio_min"`
	BuildRatioPassed bool    `json:"build_ratio_passed"`
	RSSPassed        bool    `json:"rss_passed"`
}

type Report struct {
	Schema      string       `json:"schema"`
	RecordedCPU string       `json:"recorded_cpu"`
	Quick       bool         `json:"quick"`
	Digest      DigestReport `json:"digest"`
	Build       BuildReport  `json:"build"`
	RSS         *RSSReport   `json:"rss,omitempty"`
	Gates       Gates        `json:"gates"`
}

func run(quick bool) (*Report, error) {
	rep := &Report{Schema: "bench_pr7/v1", RecordedCPU: cpuModel(), Quick: quick}

	dig, err := runDigestPhase(quick)
	if err != nil {
		return nil, err
	}
	rep.Digest = *dig

	build, err := runBuildPhase(quick)
	if err != nil {
		return nil, err
	}
	rep.Build = *build

	if !quick {
		rss, err := runRSSPhase()
		if err != nil {
			return nil, err
		}
		rep.RSS = rss
	}

	g := &rep.Gates
	g.DigestMatch = rep.Digest.Match
	g.BuildRatioMin = minBuildRatio
	g.BuildRatioPassed = rep.Build.Ratio >= minBuildRatio && rep.Build.AnalyzeDigestMatch
	g.RSSPassed = quick || (rep.RSS != nil && rep.RSS.StreamWithinBudget && rep.RSS.LegacyExceedsBudget)
	return rep, nil
}

// digestAnalyze folds every analyze output the experiments read from
// the corpus into the hash.
func digestAnalyze(h hash.Hash, w *workload.World) {
	rf := w.RevokedFractionSeries()
	for i := range rf.Times {
		fmt.Fprintf(h, "%d %g %g %g %g\n", rf.Times[i].UnixNano(),
			rf.FreshAll[i], rf.FreshEV[i], rf.AliveAll[i], rf.AliveEV[i])
	}
	fmt.Fprintf(h, "summary %+v\n", w.Summary())
	fmt.Fprintf(h, "stapling %+v\n", w.StaplingDeployment())
	for _, t := range w.Corpus.Scans() {
		fmt.Fprintf(h, "pop %+v\n", w.Corpus.PopulationAt(t))
	}
	for _, life := range w.Corpus.Lifetimes() {
		fmt.Fprintf(h, "%g ", life)
	}
}

// runDigestPhase builds the same seed-scale world twice — fully
// resident, then with a 1-byte spill budget so every sealed scan
// segment round-trips through disk — and compares analyze digests.
func runDigestPhase(quick bool) (*DigestReport, error) {
	scale := fullWorldScale
	if quick {
		scale = quickWorldScale
	}
	fmt.Printf("digest fixture: real world at scale %g, mem vs spilled corpus\n", scale)
	build := func(spill bool) (string, *DigestReport, error) {
		cfg := workload.Config{Scale: scale, Seed: 7}
		var dir string
		if spill {
			d, err := os.MkdirTemp("", "benchworld-digest-")
			if err != nil {
				return "", nil, err
			}
			dir = d
			defer os.RemoveAll(dir)
			cfg.MemoryBudget = 1
			cfg.CorpusDir = dir
		}
		w, err := workload.NewWorld(cfg)
		if err != nil {
			return "", nil, err
		}
		defer w.Close()
		if err := w.Run(); err != nil {
			return "", nil, err
		}
		h := sha256.New()
		digestAnalyze(h, w)
		st := w.Corpus.Stats()
		rep := &DigestReport{Scale: scale, Scans: st.Scans, Certs: st.Certs, SpilledSegs: st.SpilledSegments}
		if spill && st.SpilledSegments == 0 {
			return "", nil, fmt.Errorf("spilling world spilled no segments (stats %+v)", st)
		}
		return fmt.Sprintf("%x", h.Sum(nil)), rep, nil
	}
	memDigest, _, err := build(false)
	if err != nil {
		return nil, err
	}
	diskDigest, rep, err := build(true)
	if err != nil {
		return nil, err
	}
	rep.Match = memDigest == diskDigest
	fmt.Printf("  %d certs / %d scans, %d spilled segments, match: %v\n",
		rep.Certs, rep.Scans, rep.SpilledSegs, rep.Match)
	if !rep.Match {
		return rep, fmt.Errorf("analyze digests diverged: mem %s disk %s", memDigest, diskDigest)
	}
	return rep, nil
}

// runBuildPhase replays the identical synthetic fixture into the legacy
// and streaming engines and compares build throughput and digests.
func runBuildPhase(quick bool) (*BuildReport, error) {
	cfg := fullBuildCfg
	if quick {
		cfg = quickBuildCfg
	}
	fmt.Printf("build fixture: %d certs x %d scans\n", cfg.Certs, cfg.Scans)

	leg := corpus.NewLegacy()
	start := time.Now()
	legSight := worldbench.New(cfg).BuildInto(leg)
	legDur := time.Since(start)

	dir, err := os.MkdirTemp("", "benchworld-build-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stream, err := corpus.NewWithConfig(corpus.Config{SpillBudget: streamSpillBudget, Dir: dir})
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	start = time.Now()
	streamSight := worldbench.New(cfg).BuildInto(stream)
	streamDur := time.Since(start)
	if legSight != streamSight {
		return nil, fmt.Errorf("engines disagree on the fixture: legacy %d sightings, stream %d", legSight, streamSight)
	}

	legDigest := worldbench.DigestLegacy(leg)
	streamDigest, err := worldbench.DigestStreaming(stream)
	if err != nil {
		return nil, err
	}
	rep := &BuildReport{
		Certs:              cfg.Certs,
		Sightings:          legSight,
		LegacyCertsPerSec:  float64(legSight) / legDur.Seconds(),
		StreamCertsPerSec:  float64(streamSight) / streamDur.Seconds(),
		AnalyzeDigestMatch: legDigest == streamDigest,
	}
	rep.Ratio = rep.StreamCertsPerSec / rep.LegacyCertsPerSec
	fmt.Printf("  legacy build %12.0f sightings/sec\n", rep.LegacyCertsPerSec)
	fmt.Printf("  stream build %12.0f sightings/sec (%.2fx of legacy, digest match: %v)\n",
		rep.StreamCertsPerSec, rep.Ratio, rep.AnalyzeDigestMatch)
	return rep, nil
}

// runRSSPhase measures each engine's peak RSS on the paper-scale world
// in a child process, so one engine's heap never pollutes the other's
// high-water mark.
func runRSSPhase() (*RSSReport, error) {
	rep := &RSSReport{Certs: rssCfg.Certs, BudgetBytes: rssBudgetBytes}
	fmt.Printf("rss fixture: %d certs x %d scans (budget %d MiB)\n",
		rssCfg.Certs, rssCfg.Scans, rssBudgetBytes>>20)
	for _, engine := range []string{"legacy", "stream"} {
		dir, err := os.MkdirTemp("", "benchworld-rss-")
		if err != nil {
			return nil, err
		}
		peak, sightings, err := runRSSWorker(engine, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("rss worker (%s): %w", engine, err)
		}
		fmt.Printf("  %-6s peak RSS %6d MiB (%d sightings)\n", engine, peak>>20, sightings)
		rep.Sightings = sightings
		if engine == "legacy" {
			rep.LegacyPeakBytes = peak
		} else {
			rep.StreamPeakBytes = peak
		}
	}
	rep.StreamWithinBudget = rep.StreamPeakBytes > 0 && rep.StreamPeakBytes <= rssBudgetBytes
	rep.LegacyExceedsBudget = rep.LegacyPeakBytes > rssBudgetBytes
	return rep, nil
}

func runRSSWorker(engine, dir string) (peak, sightings int64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "-rssworker", engine, "-rssdir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, err
	}
	var certs int64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)),
		"certs=%d sightings=%d peak_rss_bytes=%d", &certs, &sightings, &peak); err != nil {
		return 0, 0, fmt.Errorf("unparseable worker output %q: %w", out, err)
	}
	if want := int64(rssCfg.Certs); certs != want {
		return 0, 0, fmt.Errorf("worker observed %d certs, want %d", certs, want)
	}
	if peak == 0 {
		return 0, 0, fmt.Errorf("no VmHWM on this platform")
	}
	return peak, sightings, nil
}

// rssWorker is the child-process body: build the paper-scale corpus
// with the chosen engine, run a streaming analyze pass to prove the
// world is readable end to end, and report the peak RSS.
func rssWorker(engine, dir string) error {
	// The comparison targets each engine's live set, not the garbage
	// collector's headroom; halve it identically for both engines.
	debug.SetGCPercent(50)
	g := worldbench.New(rssCfg)
	var (
		sightings int64
		certs     int
	)
	switch engine {
	case "legacy":
		c := corpus.NewLegacy()
		sightings = g.BuildInto(c)
		certs = c.Size()
		// Analyze pass: the same fold the streaming engine is asked for.
		var walked int64
		for _, h := range c.Histories() {
			walked += int64(len(h.Sightings))
		}
		if walked != sightings {
			return fmt.Errorf("legacy analyze walked %d sightings, built %d", walked, sightings)
		}
	case "stream":
		c, err := corpus.NewWithConfig(corpus.Config{SpillBudget: streamSpillBudget, Dir: dir})
		if err != nil {
			return err
		}
		sightings = g.BuildInto(c)
		certs = c.Size()
		var walked int64
		err = c.VisitHistories(func(ct *corpus.Cert, s []corpus.Sighting) bool {
			walked += int64(len(s))
			return true
		})
		if err != nil {
			return err
		}
		if walked != sightings {
			return fmt.Errorf("stream analyze walked %d sightings, built %d", walked, sightings)
		}
		if err := c.Close(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown rss worker engine %q", engine)
	}
	peak, err := revbench.PeakRSSBytes()
	if err != nil {
		return err
	}
	fmt.Printf("certs=%d sightings=%d peak_rss_bytes=%d\n", certs, sightings, peak)
	return nil
}

// checkAgainst validates a fresh quick run's gates and the recorded
// file's full-run numbers.
func checkAgainst(recorded, current *Report) error {
	if recorded.Quick {
		return fmt.Errorf("recorded file was produced by a quick run; regenerate with make bench-world")
	}
	if recorded.RSS == nil {
		return fmt.Errorf("recorded file has no RSS phase; regenerate with make bench-world")
	}
	check := func(ok bool, format string, args ...any) error {
		status := "ok"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  %-52s %s\n", fmt.Sprintf(format, args...), status)
		if !ok {
			return fmt.Errorf(format, args...)
		}
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	// Gates on the current (re-run) numbers.
	keep(check(current.Gates.DigestMatch, "mem vs spilled analyze digest match %v", current.Digest.Match))
	keep(check(current.Gates.BuildRatioPassed, "stream/legacy build ratio %.2f >= %.2f (digest %v)",
		current.Build.Ratio, minBuildRatio, current.Build.AnalyzeDigestMatch))
	// Recorded full-run numbers must themselves satisfy every gate.
	keep(check(recorded.Gates.DigestMatch, "recorded analyze digest match"))
	keep(check(recorded.Gates.BuildRatioPassed && recorded.Build.Ratio >= minBuildRatio,
		"recorded build ratio %.2f >= %.2f", recorded.Build.Ratio, minBuildRatio))
	keep(check(recorded.RSS.StreamWithinBudget, "recorded stream peak %d MiB <= budget %d MiB",
		recorded.RSS.StreamPeakBytes>>20, recorded.RSS.BudgetBytes>>20))
	keep(check(recorded.RSS.LegacyExceedsBudget, "recorded legacy peak %d MiB > budget %d MiB",
		recorded.RSS.LegacyPeakBytes>>20, recorded.RSS.BudgetBytes>>20))
	return firstErr
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		out        = flag.String("o", "", "run the full benchmark (incl. the 38.5M RSS phase) and write the JSON record here")
		checkPath  = flag.String("check", "", "re-run the quick gates and fail if they or the recorded numbers regress")
		quick      = flag.Bool("quick", false, "small fixtures; skips the RSS phase (gates stay comparable)")
		verbose    = flag.Bool("v", false, "print the resulting JSON to stdout")
		rssw       = flag.String("rssworker", "", "internal: run as the RSS child process for this engine")
		rssdir     = flag.String("rssdir", "", "internal: spill directory for the RSS child")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *rssw != "" {
		if err := rssWorker(*rssw, *rssdir); err != nil {
			fmt.Fprintln(os.Stderr, "benchworld:", err)
			return 1
		}
		return 0
	}
	if (*out == "") == (*checkPath == "") {
		fmt.Fprintln(os.Stderr, "benchworld: exactly one of -o or -check is required")
		flag.Usage()
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchworld:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "benchworld:", err)
		}
	}()

	result, err := run(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchworld:", err)
		return 1
	}

	if *out != "" {
		if *quick {
			fmt.Fprintln(os.Stderr, "benchworld: refusing to record quick-fixture numbers with -o")
			return 2
		}
		if err := checkAgainst(result, result); err != nil {
			fmt.Fprintln(os.Stderr, "benchworld: fresh numbers fail the gate:", err)
			return 1
		}
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchworld:", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchworld:", err)
			return 1
		}
		if *verbose {
			os.Stdout.Write(data)
		}
		fmt.Printf("wrote %s\n", *out)
		return 0
	}

	data, err := os.ReadFile(*checkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchworld:", err)
		return 1
	}
	var recorded Report
	if err := json.Unmarshal(data, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "benchworld: %s: %v\n", *checkPath, err)
		return 1
	}
	if err := checkAgainst(&recorded, result); err != nil {
		fmt.Fprintln(os.Stderr, "benchworld:", err)
		return 1
	}
	fmt.Println("benchworld: all world-engine gates hold")
	return 0
}
