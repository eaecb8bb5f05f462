// Benchrevdb measures the revocation-store backends against each other
// and maintains BENCH_pr6.json, the record of the disk-backed segment
// store's acceptance gates:
//
//   - ingest: disk throughput must hold at least half of the in-memory
//     store's entries/sec on an identical synthetic crawl;
//   - lookup: warm LookupMeta against the mmap'd snapshot segment must
//     run with zero heap allocations;
//   - recovery: a 1M-entry store must reopen from disk to a bit-identical
//     logical state (XOR digest), with the cold-start time recorded;
//   - rss: a 10M-revocation world must fit the disk store inside a fixed
//     RSS budget that the in-memory store demonstrably exceeds (the two
//     peaks are measured in separate child processes via VmHWM).
//
// Usage:
//
//	benchrevdb -o BENCH_pr6.json            # full run (incl. 10M RSS phase)
//	benchrevdb -check BENCH_pr6.json -quick # CI gate (make check)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/profiling"
	"repro/internal/revbench"
	"repro/internal/revdb"
	"repro/internal/revdb/segdb"
)

// rssBudgetBytes is the fixed resident-set budget for the 10M-entry
// world. The disk store must stay under it, the in-memory store must
// exceed it; both measured peaks are recorded. The value sits between
// the measured peaks (disk ~2.9-3.2 GiB, mem ~4.2-4.5 GiB — both
// dominated by the shared crawl fixture, whose live CRLs model the
// crawler's parse cache) with ~13% margin on each side so run-to-run
// GC noise cannot flip the gate.
const rssBudgetBytes = 3700 << 20 // ~3.6 GiB

// minIngestRatio is the floor on disk ingest throughput relative to mem.
const minIngestRatio = 0.5

// Fixture sizes. Quick mode keeps the same world shape at a size that
// finishes in seconds; the alloc and digest gates are size-independent.
var (
	fullIngestCfg  = revbench.Config{URLs: 128, Days: 60, ChangeEvery: 8, NewPerChangedURL: 1050, Seed: 1}
	quickIngestCfg = revbench.Config{URLs: 32, Days: 20, ChangeEvery: 4, NewPerChangedURL: 250, Seed: 1}
	rssCfg         = revbench.Config{URLs: 512, Days: 90, ChangeEvery: 8, NewPerChangedURL: 1736, Seed: 2}
)

type IngestReport struct {
	Entries           int     `json:"entries"`
	Days              int     `json:"days"`
	MemEntriesPerSec  float64 `json:"mem_entries_per_sec"`
	DiskEntriesPerSec float64 `json:"disk_entries_per_sec"`
	Ratio             float64 `json:"ratio"`
}

type LookupReport struct {
	SnapshotEntries int     `json:"snapshot_entries"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	NsPerOp         int64   `json:"ns_per_op"`
}

type RecoveryReport struct {
	Entries     int     `json:"entries"`
	OpenSeconds float64 `json:"open_seconds"`
	DigestMatch bool    `json:"digest_match"`
}

type RSSReport struct {
	Entries          int   `json:"entries"`
	BudgetBytes      int64 `json:"budget_bytes"`
	MemPeakBytes     int64 `json:"mem_peak_bytes"`
	DiskPeakBytes    int64 `json:"disk_peak_bytes"`
	DiskWithinBudget bool  `json:"disk_within_budget"`
	MemExceedsBudget bool  `json:"mem_exceeds_budget"`
}

type Gates struct {
	IngestRatioMin      float64 `json:"ingest_ratio_min"`
	IngestRatioPassed   bool    `json:"ingest_ratio_passed"`
	LookupZeroAlloc     bool    `json:"lookup_zero_alloc"`
	RecoveryDigestMatch bool    `json:"recovery_digest_match"`
	RSSPassed           bool    `json:"rss_passed"`
}

type Report struct {
	Schema      string         `json:"schema"`
	RecordedCPU string         `json:"recorded_cpu"`
	Quick       bool           `json:"quick"`
	Ingest      IngestReport   `json:"ingest"`
	Lookup      LookupReport   `json:"lookup"`
	Recovery    RecoveryReport `json:"recovery"`
	RSS         *RSSReport     `json:"rss,omitempty"`
	Gates       Gates          `json:"gates"`
}

func run(quick bool) (*Report, error) {
	cfg := fullIngestCfg
	if quick {
		cfg = quickIngestCfg
	}
	rep := &Report{Schema: "bench_pr6/v1", RecordedCPU: cpuModel(), Quick: quick}

	// --- ingest throughput: identical crawl into each backend ---------
	fmt.Printf("ingest fixture: %d URLs x %d days, %d entries\n", cfg.URLs, cfg.Days, cfg.TotalEntries())
	mem := revdb.New()
	memEntries, memDur := revbench.IngestAll(mem, revbench.NewGenerator(cfg))

	dir, err := os.MkdirTemp("", "benchrevdb-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := segdb.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	gen := revbench.NewGenerator(cfg)
	diskEntries, diskDur := revbench.IngestAll(disk, gen)
	if memEntries != diskEntries {
		return nil, fmt.Errorf("backends disagree on the fixture: mem %d entries, disk %d", memEntries, diskEntries)
	}
	rep.Ingest = IngestReport{
		Entries:           diskEntries,
		Days:              cfg.Days,
		MemEntriesPerSec:  float64(memEntries) / memDur.Seconds(),
		DiskEntriesPerSec: float64(diskEntries) / diskDur.Seconds(),
	}
	rep.Ingest.Ratio = rep.Ingest.DiskEntriesPerSec / rep.Ingest.MemEntriesPerSec
	fmt.Printf("  mem  ingest %12.0f entries/sec\n", rep.Ingest.MemEntriesPerSec)
	fmt.Printf("  disk ingest %12.0f entries/sec (%.2fx of mem)\n", rep.Ingest.DiskEntriesPerSec, rep.Ingest.Ratio)

	// --- warm lookups against the mmap'd snapshot ---------------------
	if err := disk.Compact(); err != nil {
		return nil, err
	}
	samples := gen.Samples
	if len(samples) == 0 {
		return nil, fmt.Errorf("fixture produced no lookup samples")
	}
	var i int
	allocs := testing.AllocsPerRun(2000, func() {
		s := samples[i%len(samples)]
		i++
		if _, ok := disk.LookupMeta(s.URL, s.Serial); !ok {
			panic("benchrevdb: sample lookup missed")
		}
	})
	br := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s := samples[n%len(samples)]
			disk.LookupMeta(s.URL, s.Serial)
		}
	})
	rep.Lookup = LookupReport{
		SnapshotEntries: disk.Stats().SnapshotEntries,
		AllocsPerOp:     allocs,
		NsPerOp:         br.NsPerOp(),
	}
	fmt.Printf("  warm lookup %12d ns/op %14.1f allocs/op (%d snapshot entries)\n",
		rep.Lookup.NsPerOp, rep.Lookup.AllocsPerOp, rep.Lookup.SnapshotEntries)

	// --- cold-start recovery ------------------------------------------
	wantDigest := revdb.XORDigest(disk)
	if err := disk.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	reopened, err := segdb.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	openDur := time.Since(start)
	rep.Recovery = RecoveryReport{
		Entries:     reopened.Size(),
		OpenSeconds: openDur.Seconds(),
		DigestMatch: revdb.XORDigest(reopened) == wantDigest,
	}
	reopened.Close()
	fmt.Printf("  cold start  %12.3fs for %d entries (digest match: %v)\n",
		rep.Recovery.OpenSeconds, rep.Recovery.Entries, rep.Recovery.DigestMatch)

	// --- RSS budget at 10M entries (full runs only) -------------------
	if !quick {
		rss, err := runRSSPhase()
		if err != nil {
			return nil, err
		}
		rep.RSS = rss
	}

	g := &rep.Gates
	g.IngestRatioMin = minIngestRatio
	g.IngestRatioPassed = rep.Ingest.Ratio >= minIngestRatio
	g.LookupZeroAlloc = rep.Lookup.AllocsPerOp == 0
	g.RecoveryDigestMatch = rep.Recovery.DigestMatch
	g.RSSPassed = quick || (rep.RSS != nil && rep.RSS.DiskWithinBudget && rep.RSS.MemExceedsBudget)
	return rep, nil
}

// runRSSPhase measures each backend's peak RSS on the 10M-entry world in
// a child process, so one backend's heap never pollutes the other's
// high-water mark.
func runRSSPhase() (*RSSReport, error) {
	rep := &RSSReport{Entries: rssCfg.TotalEntries(), BudgetBytes: rssBudgetBytes}
	fmt.Printf("rss fixture: %d URLs x %d days, %d entries (budget %d MiB)\n",
		rssCfg.URLs, rssCfg.Days, rep.Entries, rssBudgetBytes>>20)
	for _, backend := range []string{"mem", "disk"} {
		dir, err := os.MkdirTemp("", "benchrevdb-rss-")
		if err != nil {
			return nil, err
		}
		peak, err := runRSSWorker(backend, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("rss worker (%s): %w", backend, err)
		}
		fmt.Printf("  %-4s peak RSS %6d MiB\n", backend, peak>>20)
		if backend == "mem" {
			rep.MemPeakBytes = peak
		} else {
			rep.DiskPeakBytes = peak
		}
	}
	rep.DiskWithinBudget = rep.DiskPeakBytes > 0 && rep.DiskPeakBytes <= rssBudgetBytes
	rep.MemExceedsBudget = rep.MemPeakBytes > rssBudgetBytes
	return rep, nil
}

func runRSSWorker(backend, dir string) (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-rssworker", backend, "-rssdir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var peak int64
	var entries int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "entries=%d peak_rss_bytes=%d", &entries, &peak); err != nil {
		return 0, fmt.Errorf("unparseable worker output %q: %w", out, err)
	}
	if want := rssCfg.TotalEntries(); entries != want {
		return 0, fmt.Errorf("worker ingested %d entries, want %d", entries, want)
	}
	if peak == 0 {
		return 0, fmt.Errorf("no VmHWM on this platform")
	}
	return peak, nil
}

// rssWorker is the child-process body: ingest the 10M world into the
// chosen backend and report the peak RSS.
func rssWorker(backend, dir string) error {
	// The comparison targets each backend's live set, not the garbage
	// collector's headroom: at GOGC=100 the heap is allowed to double
	// past the live size, which inflates both peaks by a backend-
	// independent factor. Halving the headroom (identically for both
	// backends) keeps VmHWM close to what the stores actually hold.
	debug.SetGCPercent(50)
	var store revdb.Store
	switch backend {
	case "mem":
		store = revdb.New()
	case "disk":
		s, err := segdb.Open(dir, nil)
		if err != nil {
			return err
		}
		store = s
	default:
		return fmt.Errorf("unknown rss worker backend %q", backend)
	}
	entries, _ := revbench.IngestAll(store, revbench.NewGenerator(rssCfg))
	if err := store.Close(); err != nil {
		return err
	}
	peak, err := revbench.PeakRSSBytes()
	if err != nil {
		return err
	}
	fmt.Printf("entries=%d peak_rss_bytes=%d\n", entries, peak)
	return nil
}

// checkAgainst validates a fresh quick run's gates and the recorded
// file's full-run numbers.
func checkAgainst(recorded, current *Report) error {
	if recorded.Quick {
		return fmt.Errorf("recorded file was produced by a quick run; regenerate with make bench-revdb")
	}
	if recorded.RSS == nil {
		return fmt.Errorf("recorded file has no RSS phase; regenerate with make bench-revdb")
	}
	check := func(ok bool, format string, args ...any) error {
		status := "ok"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  %-44s %s\n", fmt.Sprintf(format, args...), status)
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
	keep(check(current.Gates.IngestRatioPassed, "disk/mem ingest ratio %.2f >= %.2f", current.Ingest.Ratio, minIngestRatio))
	keep(check(current.Gates.LookupZeroAlloc, "warm lookup allocs/op %.1f == 0", current.Lookup.AllocsPerOp))
	keep(check(current.Gates.RecoveryDigestMatch, "recovery digest match %v", current.Recovery.DigestMatch))
	// Recorded full-run numbers must themselves satisfy every gate.
	keep(check(recorded.Gates.IngestRatioPassed && recorded.Ingest.Ratio >= minIngestRatio,
		"recorded ingest ratio %.2f >= %.2f", recorded.Ingest.Ratio, minIngestRatio))
	keep(check(recorded.Gates.LookupZeroAlloc, "recorded lookup allocs/op %.1f == 0", recorded.Lookup.AllocsPerOp))
	keep(check(recorded.Gates.RecoveryDigestMatch, "recorded recovery digest match"))
	keep(check(recorded.RSS.DiskWithinBudget, "recorded disk peak %d MiB <= budget %d MiB",
		recorded.RSS.DiskPeakBytes>>20, recorded.RSS.BudgetBytes>>20))
	keep(check(recorded.RSS.MemExceedsBudget, "recorded mem peak %d MiB > budget %d MiB",
		recorded.RSS.MemPeakBytes>>20, recorded.RSS.BudgetBytes>>20))
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
		out        = flag.String("o", "", "run the full benchmark (incl. the 10M RSS phase) and write the JSON record here")
		checkPath  = flag.String("check", "", "re-run the quick gates and fail if they or the recorded numbers regress")
		quick      = flag.Bool("quick", false, "small fixtures; skips the RSS phase (gates stay comparable)")
		verbose    = flag.Bool("v", false, "print the resulting JSON to stdout")
		rssw       = flag.String("rssworker", "", "internal: run as the RSS child process for this backend")
		rssdir     = flag.String("rssdir", "", "internal: disk directory for the RSS child")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *rssw != "" {
		if err := rssWorker(*rssw, *rssdir); err != nil {
			fmt.Fprintln(os.Stderr, "benchrevdb:", err)
			return 1
		}
		return 0
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrevdb:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "benchrevdb:", err)
		}
	}()
	if (*out == "") == (*checkPath == "") {
		fmt.Fprintln(os.Stderr, "benchrevdb: exactly one of -o or -check is required")
		flag.Usage()
		return 2
	}

	result, err := run(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrevdb:", err)
		return 1
	}

	if *out != "" {
		if *quick {
			fmt.Fprintln(os.Stderr, "benchrevdb: refusing to record quick-fixture numbers with -o")
			return 2
		}
		if err := checkAgainst(result, result); err != nil {
			fmt.Fprintln(os.Stderr, "benchrevdb: fresh numbers fail the gate:", err)
			return 1
		}
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrevdb:", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchrevdb:", err)
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
		fmt.Fprintln(os.Stderr, "benchrevdb:", err)
		return 1
	}
	var recorded Report
	if err := json.Unmarshal(data, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "benchrevdb: %s: %v\n", *checkPath, err)
		return 1
	}
	if err := checkAgainst(&recorded, result); err != nil {
		fmt.Fprintln(os.Stderr, "benchrevdb:", err)
		return 1
	}
	fmt.Println("benchrevdb: all revocation-store gates hold")
	return 0
}
