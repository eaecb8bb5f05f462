// Command cascadegen builds the CRLite-style filter-cascade artifact
// chain from a simulated world: the day-zero snapshot, one binary delta
// per crawl day, the final snapshot, and a compacted catch-up delta for
// clients that missed many days. With -verify it replays the delta chain
// and audits the final filter against the revocation database — the same
// zero-FP/zero-FN differential the test battery enforces.
//
// Usage:
//
//	cascadegen [-scale 0.01] [-seed 1] [-store mem|disk] [-storedir DIR]
//	           [-world mem|disk] [-worlddir DIR]
//	           [-cascadedir DIR] [-full-study] [-verify]
//
// By default additions are dated by crawl observation (the first day the
// crawler saw each revocation). -full-study publishes a daily chain over
// the whole study period with additions dated by what the CRLs themselves
// assert (RevokedAt), which places the Heartbleed surge in the delta
// stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cascade"
	"repro/internal/profiling"
	"repro/internal/revdb/storeflag"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the generator; main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cascadegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.01, "population scale relative to the real internet")
	seed := fs.Int64("seed", 1, "simulation seed")
	store := fs.String("store", "mem", "revocation database backend: mem or disk")
	storeDir := fs.String("storedir", "", "disk store directory (default: a fresh temp dir)")
	worldBackend := fs.String("world", "mem", "corpus backend: mem keeps sighting runs resident, disk spills sealed scan segments")
	worldDir := fs.String("worlddir", "", "corpus spill directory (default: a temp dir removed on exit)")
	cascadeDir := fs.String("cascadedir", "", "write the snapshot/delta artifact chain to this directory")
	fullStudy := fs.Bool("full-study", false, "publish daily over the whole study period, additions dated by RevokedAt")
	verify := fs.Bool("verify", false, "replay the delta chain and audit the final filter against ground truth")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "cascadegen:", err)
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "cascadegen:", err)
		}
	}()

	cfg := workload.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	if cfg.OpenStore, err = storeflag.Factory(*store, *storeDir); err != nil {
		return fatal(err)
	}
	if err := workload.ApplyWorldBackend(&cfg, *worldBackend, *worldDir); err != nil {
		return fatal(err)
	}
	world, err := workload.NewWorld(cfg)
	if err != nil {
		return fatal(err)
	}
	defer world.Close()
	fmt.Fprintf(stderr, "running %s..%s at scale %g\n",
		cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"), *scale)
	if err := world.Run(); err != nil {
		return fatal(err)
	}

	var feed *workload.CascadeFeed
	if *fullStudy {
		feed, err = world.CascadeFeedFullStudy()
	} else {
		feed, err = world.CascadeFeed()
	}
	if err != nil {
		return fatal(err)
	}
	series, err := feed.PublishKind(cascade.KindRibbon)
	if err != nil {
		return fatal(err)
	}
	catchup, err := cascade.Compact(series.First, series.Deltas[1:])
	if err != nil {
		return fatal(err)
	}

	var deltaTotal int
	for _, d := range series.Deltas[1:] {
		deltaTotal += len(d)
	}
	first, last := series.Days[0], series.Days[len(series.Days)-1]
	fmt.Fprintf(stdout, "epochs published:   %d (%s..%s)\n",
		len(series.Days), first.Format("2006-01-02"), last.Format("2006-01-02"))
	fmt.Fprintf(stdout, "revocations:        %d under %d parents\n", feed.Revocations, len(feed.Parents))
	fmt.Fprintf(stdout, "day-zero snapshot:  %d bytes\n", len(series.First))
	fmt.Fprintf(stdout, "final snapshot:     %d bytes\n", len(series.Final))
	fmt.Fprintf(stdout, "delta chain:        %d bytes over %d days (%.0f B/day)\n",
		deltaTotal, len(series.Days)-1, float64(deltaTotal)/float64(len(series.Days)-1))
	fmt.Fprintf(stdout, "catch-up delta:     %d bytes (compacted chain)\n", len(catchup))

	if *cascadeDir != "" {
		if err := writeArtifacts(*cascadeDir, series, catchup); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %d artifacts to %s\n", len(series.Days)+2, *cascadeDir)
	}

	if *verify {
		patched := series.First
		for i := 1; i < len(series.Deltas); i++ {
			if patched, err = cascade.Apply(patched, series.Deltas[i]); err != nil {
				return fatal(fmt.Errorf("delta %s: %w", series.Days[i].Format("2006-01-02"), err))
			}
		}
		if cascade.Digest(patched) != cascade.Digest(series.Final) {
			return fatal(fmt.Errorf("delta chain does not reproduce the final snapshot"))
		}
		caught, err := cascade.Apply(series.First, catchup)
		if err != nil {
			return fatal(fmt.Errorf("catch-up delta: %w", err))
		}
		if cascade.Digest(caught) != cascade.Digest(series.Final) {
			return fatal(fmt.Errorf("catch-up delta does not reproduce the final snapshot"))
		}
		audit, err := world.AuditCascade(series.Final, last)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "verify: chain ok, catch-up ok; %d certs probed, %d/%d listed revocations covered, %d FP / %d FN\n",
			audit.CertsChecked, audit.ListedRevocations-audit.Missed, audit.ListedRevocations,
			audit.FalsePositives, audit.FalseNegatives)
		if !audit.Exact() {
			return fatal(fmt.Errorf("cascade is not exact against ground truth"))
		}
	}
	return 0
}

// writeArtifacts lays the chain out as one file per epoch: the day-zero
// and final snapshots, each day's delta, and the compacted catch-up.
func writeArtifacts(dir string, series *workload.CascadeSeries, catchup []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	day := func(i int) string { return series.Days[i].Format("2006-01-02") }
	if err := os.WriteFile(filepath.Join(dir, "snapshot-"+day(0)+".casc"), series.First, 0o644); err != nil {
		return err
	}
	for i := 1; i < len(series.Deltas); i++ {
		name := fmt.Sprintf("delta-%03d-%s.casd", i, day(i))
		if err := os.WriteFile(filepath.Join(dir, name), series.Deltas[i], 0o644); err != nil {
			return err
		}
	}
	last := len(series.Days) - 1
	if err := os.WriteFile(filepath.Join(dir, "snapshot-"+day(last)+".casc"), series.Final, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "catchup-"+day(last)+".casd"), catchup, 0o644)
}
