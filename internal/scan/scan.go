// Package scan implements the measurement study's two scanners: the
// simulated full-"IPv4" scanner that sweeps the host population weekly and
// feeds the corpus (standing in for the Rapid7 sonar.ssl scans, §3.1), and
// a live zgrab-style TLS grabber that performs a real handshake against a
// real address and captures the advertised chain plus any OCSP staple
// (standing in for the University of Michigan TLS handshake scans, §4.3).
package scan

import (
	"crypto/tls"
	"fmt"
	"net"
	"time"

	"repro/internal/ca"
	"repro/internal/corpus"
	"repro/internal/host"
	"repro/internal/x509x"
)

// Scanner sweeps a population of simulated hosts.
type Scanner struct {
	Hosts []*host.SimHost
}

// Result is one full scan.
type Result struct {
	At time.Time
	// Advertisements aggregates per certificate.
	Advertisements []corpus.Advertisement
	// HostsResponding is how many hosts served any certificate.
	HostsResponding int
	// HostsStapling is how many responding hosts presented a staple.
	HostsStapling int
}

// Scan performs one sweep at the given (virtual) time.
func (s *Scanner) Scan(at time.Time) Result {
	type agg struct {
		hosts   int
		stapled int
	}
	byRecord := make(map[*ca.Record]*agg)
	var order []*ca.Record
	res := Result{At: at}
	for _, h := range s.Hosts {
		hr := h.Handshake()
		if hr.Record == nil {
			continue
		}
		res.HostsResponding++
		if hr.StaplePresented {
			res.HostsStapling++
		}
		a := byRecord[hr.Record]
		if a == nil {
			a = &agg{}
			byRecord[hr.Record] = a
			order = append(order, hr.Record)
		}
		a.hosts++
		if hr.StaplePresented {
			a.stapled++
		}
	}
	for _, rec := range order {
		a := byRecord[rec]
		res.Advertisements = append(res.Advertisements, corpus.Advertisement{
			Record:       rec,
			Hosts:        a.hosts,
			StapledHosts: a.stapled,
		})
	}
	return res
}

// ScanInto performs one sweep and ingests it into the corpus.
func (s *Scanner) ScanInto(c *corpus.Corpus, at time.Time) Result {
	res := s.Scan(at)
	c.RecordScan(at, res.Advertisements)
	return res
}

// GrabResult is what one live TLS handshake captured.
type GrabResult struct {
	// Chain is the presented certificate chain, leaf first, parsed with
	// this repository's own X.509 implementation.
	Chain []*x509x.Certificate
	// RawChain is the DER of each presented certificate.
	RawChain [][]byte
	// Staple is the stapled OCSP response, if any.
	Staple []byte
	// Version and CipherSuite describe the negotiated session.
	Version     uint16
	CipherSuite uint16
}

// Grab connects to addr (host:port), performs a TLS handshake requesting
// an OCSP staple, and captures the certificate chain without validating
// it — scanners must record invalid and expired chains too.
func Grab(addr string, timeout time.Duration) (*GrabResult, error) {
	dialer := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(dialer, "tcp", addr, &tls.Config{
		InsecureSkipVerify: true, // scanner records; it does not trust
	})
	if err != nil {
		return nil, fmt.Errorf("scan: %s: %w", addr, err)
	}
	defer conn.Close()
	state := conn.ConnectionState()
	res := &GrabResult{
		Staple:      state.OCSPResponse,
		Version:     state.Version,
		CipherSuite: state.CipherSuite,
	}
	for _, peer := range state.PeerCertificates {
		res.RawChain = append(res.RawChain, peer.Raw)
		parsed, err := x509x.Parse(peer.Raw)
		if err != nil {
			return nil, fmt.Errorf("scan: %s: parsing presented certificate: %v", addr, err)
		}
		res.Chain = append(res.Chain, parsed)
	}
	if len(res.Chain) == 0 {
		return nil, fmt.Errorf("scan: %s: no certificates presented", addr)
	}
	return res, nil
}
