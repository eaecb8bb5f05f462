package main

import (
	"flag"
	"fmt"
	"io"
)

// scanCmd runs the simulated measurement pipeline (weekly full-address-
// space scans, daily CRL crawls, daily CRLSet generation) and prints the
// dataset summary the paper's §3 reports plus the headline revocation
// fractions.
func scanCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	config := worldFlags(fs)
	return func(stdout, stderr io.Writer) error {
		world, err := runWorld(config(), stderr)
		if err != nil {
			return err
		}
		defer world.Close()

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
		return nil
	}
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
