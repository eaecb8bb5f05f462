// Package repro is a from-scratch Go reproduction of "An End-to-End
// Measurement of Certificate Revocation in the Web's PKI" (IMC 2015): the
// PKI wire formats (DER, X.509, CRL, OCSP), the measurement apparatus
// (scanner, CRL crawler, revocation database), the browser
// revocation-policy engine with its test suite, the CRLSet pipeline, and
// the Bloom-filter alternative — plus a benchmark harness that regenerates
// every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results. The root package holds
// only the repository-wide benchmark suite (bench_test.go); the library
// lives under internal/ and the one command, rev, under cmd/rev.
package repro
