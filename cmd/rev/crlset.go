package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bloom"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/x509x"
)

// crlsetCmd builds a CRLSet (and Bloom-filter / Golomb-set alternatives)
// from a directory of DER CRL files, applying Google's documented
// construction rules, and reports the coverage each encoding achieves
// within the same byte budget: the §7.4 comparison. Every *.crl file in
// the directory is parsed; the issuer certificate provides the CRLSet
// parent (SPKI hash) and verifies CRL signatures.
func crlsetCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	crlDir := fs.String("crls", "", "directory containing *.crl files (DER)")
	issuerPath := fs.String("issuer", "", "PEM certificate of the issuing CA")
	outPath := fs.String("out", "", "write the CRLSet binary here (optional)")
	maxBytes := fs.Int("maxbytes", crlset.MaxBytes, "CRLSet size cap")
	maxEntries := fs.Int("maxentries", 10000, "drop CRLs with more entries")
	return func(stdout, stderr io.Writer) error {
		if *crlDir == "" || *issuerPath == "" {
			fs.Usage()
			return exitStatus{code: 1}
		}
		issuerPEM, err := os.ReadFile(*issuerPath)
		if err != nil {
			return err
		}
		issuers, err := x509x.ParsePEMCertificates(issuerPEM)
		if err != nil {
			return err
		}
		issuer := issuers[0]
		parent := crlset.Parent(issuer.SPKIHash())

		paths, err := filepath.Glob(filepath.Join(*crlDir, "*.crl"))
		if err != nil {
			return err
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			return fmt.Errorf("no *.crl files in %s", *crlDir)
		}
		var sources []crlset.SourceCRL
		var serials [][]byte
		totalEntries := 0
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			parsed, err := crl.Parse(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if err := parsed.VerifySignature(issuer); err != nil {
				fmt.Fprintf(stderr, "rev crlset: skipping %s: %v\n", path, err)
				continue
			}
			sources = append(sources, crlset.SourceCRL{
				Parent: parent, URL: path, Public: true, Entries: parsed.Entries,
			})
			for _, e := range parsed.Entries {
				serials = append(serials, e.Serial)
				totalEntries++
			}
		}

		set := crlset.Generate(crlset.GeneratorConfig{
			MaxBytes:      *maxBytes,
			MaxCRLEntries: *maxEntries,
			FilterReasons: true,
		}, sources, 1)
		cov := crlset.AnalyzeCoverage(set, sources)

		fmt.Fprintf(stdout, "CRLs parsed:        %d (%d revocations)\n", len(sources), totalEntries)
		fmt.Fprintf(stdout, "CRLSet:             %d entries, %d parents, %d bytes (%.2f%% coverage)\n",
			set.NumEntries(), set.NumParents(), set.Size(), cov.CoverageFraction()*100)

		// The same byte budget as Bloom filter and Golomb set.
		filter := bloom.NewOptimal(set.Size(), totalEntries)
		for _, s := range serials {
			filter.Add(s)
		}
		gcs := bloom.BuildGCS(serials, 100)
		fmt.Fprintf(stdout, "Bloom (same bytes): all %d revocations at %.3f%% FPR\n",
			totalEntries, filter.FalsePositiveRate()*100)
		fmt.Fprintf(stdout, "Golomb set @1%%:     all %d revocations in %d bytes (%.1f bits/entry)\n",
			totalEntries, gcs.SizeBytes(), gcs.BitsPerEntry())

		if *outPath != "" {
			data, err := set.Marshal()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*outPath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *outPath, len(data))
		}
		return nil
	}
}
