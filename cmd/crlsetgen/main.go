// Command crlsetgen builds a CRLSet (and Bloom-filter / Golomb-set
// alternatives) from a directory of DER CRL files, applying Google's
// documented construction rules, and reports the coverage each encoding
// achieves within the same byte budget — the §7.4 comparison.
//
// Usage:
//
//	crlsetgen -crls dir/ -issuer issuer.pem [-out crlset.bin] [-maxbytes 256000]
//
// Every *.crl file in the directory is parsed; the issuer certificate
// provides the CRLSet parent (SPKI hash) and verifies CRL signatures.
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
	"repro/internal/profiling"
	"repro/internal/x509x"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the generator; main minus process concerns.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crlsetgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	crlDir := fs.String("crls", "", "directory containing *.crl files (DER)")
	issuerPath := fs.String("issuer", "", "PEM certificate of the issuing CA")
	outPath := fs.String("out", "", "write the CRLSet binary here (optional)")
	maxBytes := fs.Int("maxbytes", crlset.MaxBytes, "CRLSet size cap")
	maxEntries := fs.Int("maxentries", 10000, "drop CRLs with more entries")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *crlDir == "" || *issuerPath == "" {
		fs.Usage()
		return 1
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "crlsetgen:", err)
		return 1
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "crlsetgen:", err)
		}
	}()

	issuerPEM, err := os.ReadFile(*issuerPath)
	if err != nil {
		return fatal(err)
	}
	issuers, err := x509x.ParsePEMCertificates(issuerPEM)
	if err != nil {
		return fatal(err)
	}
	issuer := issuers[0]
	parent := crlset.Parent(issuer.SPKIHash())

	paths, err := filepath.Glob(filepath.Join(*crlDir, "*.crl"))
	if err != nil {
		return fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return fatal(fmt.Errorf("no *.crl files in %s", *crlDir))
	}
	var sources []crlset.SourceCRL
	var serials [][]byte
	totalEntries := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fatal(err)
		}
		parsed, err := crl.Parse(data)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", path, err))
		}
		if err := parsed.VerifySignature(issuer); err != nil {
			fmt.Fprintf(stderr, "crlsetgen: skipping %s: %v\n", path, err)
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
			return fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *outPath, len(data))
	}
	return 0
}
