package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cascade"
	"repro/internal/workload"
)

// cascadeCmd builds the CRLite-style filter-cascade artifact chain from a
// simulated world: the day-zero snapshot, one binary delta per crawl day,
// the final snapshot, and a compacted catch-up delta for clients that
// missed many days. With -verify it replays the delta chain and audits
// the final filter against the revocation database, the same
// zero-FP/zero-FN differential the test battery enforces.
//
// By default additions are dated by crawl observation (the first day the
// crawler saw each revocation). -full-study publishes a daily chain over
// the whole study period with additions dated by what the CRLs
// themselves assert (RevokedAt), which places the Heartbleed surge in the
// delta stream.
func cascadeCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	config := worldFlags(fs)
	cascadeDir := fs.String("cascadedir", "", "write the snapshot/delta artifact chain to this directory")
	fullStudy := fs.Bool("full-study", false, "publish daily over the whole study period, additions dated by RevokedAt")
	verify := fs.Bool("verify", false, "replay the delta chain and audit the final filter against ground truth")
	return func(stdout, stderr io.Writer) error {
		world, err := runWorld(config(), stderr)
		if err != nil {
			return err
		}
		defer world.Close()

		var feed *workload.CascadeFeed
		if *fullStudy {
			feed, err = world.CascadeFeedFullStudy()
		} else {
			feed, err = world.CascadeFeed()
		}
		if err != nil {
			return err
		}
		series, err := feed.PublishKind(cascade.KindRibbon)
		if err != nil {
			return err
		}
		catchup, err := cascade.Compact(series.First, series.Deltas[1:])
		if err != nil {
			return err
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
				return err
			}
			fmt.Fprintf(stdout, "wrote %d artifacts to %s\n", len(series.Days)+2, *cascadeDir)
		}
		if !*verify {
			return nil
		}
		patched := series.First
		for i := 1; i < len(series.Deltas); i++ {
			if patched, err = cascade.Apply(patched, series.Deltas[i]); err != nil {
				return fmt.Errorf("delta %s: %w", series.Days[i].Format("2006-01-02"), err)
			}
		}
		if cascade.Digest(patched) != cascade.Digest(series.Final) {
			return errors.New("delta chain does not reproduce the final snapshot")
		}
		caught, err := cascade.Apply(series.First, catchup)
		if err != nil {
			return fmt.Errorf("catch-up delta: %w", err)
		}
		if cascade.Digest(caught) != cascade.Digest(series.Final) {
			return errors.New("catch-up delta does not reproduce the final snapshot")
		}
		audit, err := world.AuditCascade(series.Final, last)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "verify: chain ok, catch-up ok; %d certs probed, %d/%d listed revocations covered, %d FP / %d FN\n",
			audit.CertsChecked, audit.ListedRevocations-audit.Missed, audit.ListedRevocations,
			audit.FalsePositives, audit.FalseNegatives)
		if !audit.Exact() {
			return errors.New("cascade is not exact against ground truth")
		}
		return nil
	}
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
