package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/x509x"
)

// auditCmd performs an end-to-end revocation audit of a live TLS
// endpoint: it captures the presented chain and any OCSP staple, validates
// the chain, downloads and verifies CRLs, queries OCSP responders, and
// reports every certificate's revocation status with bandwidth
// accounting. It is the only subcommand that dials out. Exit status: 0
// good, 1 error, 2 revoked certificate detected, 3 revocation status could
// not be fully determined.
func auditCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	roots := fs.String("roots", "", "PEM file of trusted roots (optional; skips path validation when absent)")
	timeout := fs.Duration("timeout", 10*time.Second, "bound on the TLS handshake and on each CRL download and OCSP query")
	return func(stdout, stderr io.Writer) error {
		if fs.NArg() != 1 {
			fs.Usage()
			return exitStatus{code: 1}
		}
		auditor := &core.Auditor{Timeout: *timeout}
		if *roots != "" {
			data, err := os.ReadFile(*roots)
			if err != nil {
				return err
			}
			certs, err := x509x.ParsePEMCertificates(data)
			if err != nil {
				return err
			}
			auditor.Roots = chain.NewPool(certs...)
		}
		report, err := auditor.Audit(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Render())
		switch report.Verdict() {
		case "revoked":
			return exitStatus{code: 2}
		case "incomplete", "unchecked":
			return exitStatus{code: 3}
		}
		return nil
	}
}
