// Command revscan runs the simulated measurement pipeline — weekly
// full-address-space scans, daily CRL crawls, daily CRLSet generation —
// and prints the dataset summary the paper's §3 reports plus the headline
// revocation fractions.
//
// Usage:
//
//	revscan [-scale 0.01] [-seed 1] [-store mem|disk] [-storedir DIR]
//	        [-world mem|disk] [-worlddir DIR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/profiling"
	"repro/internal/revdb/storeflag"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the pipeline; main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.01, "population scale relative to the real internet")
	seed := fs.Int64("seed", 1, "simulation seed")
	store := fs.String("store", "mem", "revocation database backend: mem or disk")
	storeDir := fs.String("storedir", "", "disk store directory (default: a fresh temp dir)")
	worldBackend := fs.String("world", "mem", "corpus backend: mem keeps sighting runs resident, disk spills sealed scan segments")
	worldDir := fs.String("worlddir", "", "corpus spill directory (default: a temp dir removed on exit)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "revscan:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "revscan:", err)
		}
	}()

	cfg := workload.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	if cfg.OpenStore, err = storeflag.Factory(*store, *storeDir); err != nil {
		fmt.Fprintln(stderr, "revscan:", err)
		return 1
	}
	if err := workload.ApplyWorldBackend(&cfg, *worldBackend, *worldDir); err != nil {
		fmt.Fprintln(stderr, "revscan:", err)
		return 1
	}
	world, err := workload.NewWorld(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "revscan:", err)
		return 1
	}
	defer world.Close()
	fmt.Fprintf(stderr, "running %s..%s at scale %g\n",
		cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"), *scale)
	if err := world.Run(); err != nil {
		fmt.Fprintln(stderr, "revscan:", err)
		return 1
	}

	s := world.Summary()
	fmt.Fprintf(stdout, "scans ingested:        %d\n", world.Corpus.NumScans())
	fmt.Fprintf(stdout, "crawl days:            %d\n", world.Archive.Len())
	cs := world.CrawlStats
	fmt.Fprintf(stdout, "crawl fetches:         %d (changed CRLs: %d entries reused, %d decoded)\n",
		cs.Successes, cs.EntriesReused, cs.EntriesDecoded)
	fmt.Fprintf(stdout, "certificates observed: %d (leaf set)\n", s.Observed)
	fmt.Fprintf(stdout, "  with CRL pointer:    %d (%.2f%%)\n", s.WithCRL, pct(s.WithCRL, s.Observed))
	fmt.Fprintf(stdout, "  with OCSP pointer:   %d (%.2f%%)\n", s.WithOCSP, pct(s.WithOCSP, s.Observed))
	fmt.Fprintf(stdout, "  unrevokable:         %d (%.3f%%)\n", s.WithNeither, pct(s.WithNeither, s.Observed))
	fmt.Fprintf(stdout, "  advertised latest:   %d (%.1f%%)\n", s.AdvertisedLatest, pct(s.AdvertisedLatest, s.Observed))
	fmt.Fprintf(stdout, "revocations known:     %d\n", world.RevDB.Size())

	rf := world.RevokedFractionSeries()
	if n := len(rf.Times); n > 0 {
		fmt.Fprintf(stdout, "final fresh-revoked:   %.2f%% (EV %.2f%%)\n", rf.FreshAll[n-1]*100, rf.FreshEV[n-1]*100)
		fmt.Fprintf(stdout, "final alive-revoked:   %.2f%% (EV %.2f%%)\n", rf.AliveAll[n-1]*100, rf.AliveEV[n-1]*100)
	}
	if set := world.LatestSet(); set != nil {
		cov := world.CoverageNow()
		fmt.Fprintf(stdout, "CRLSet entries:        %d (%.2f%% of %d revocations)\n",
			set.NumEntries(), cov.CoverageFraction()*100, cov.TotalRevocations)
	}
	stats := world.Net.TotalStats()
	fmt.Fprintf(stdout, "crawler transfer:      %d requests, %.1f MB, %.1f min modelled client time\n",
		stats.Requests, float64(stats.BytesReceived)/1e6, stats.ModelledTime.Minutes())
	return 0
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
