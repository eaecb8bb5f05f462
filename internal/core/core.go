// Package core is the library's public facade: an end-to-end certificate
// revocation auditor in the spirit of the paper's methodology. Given a TLS
// endpoint, the Auditor performs a real handshake (requesting an OCSP
// staple), validates the presented chain, and checks every certificate's
// revocation status over every advertised mechanism — CRL download with
// signature verification, OCSP query, and staple inspection — while
// accounting for the bandwidth each mechanism cost. The result is exactly
// the evidence the paper gathers per certificate: who could have known the
// certificate was revoked, by which mechanism, and at what price.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/scan"
	"repro/internal/x509x"
)

// Status is the audited revocation status of one certificate via one
// mechanism.
type Status string

// Statuses.
const (
	StatusGood        Status = "good"
	StatusRevoked     Status = "revoked"
	StatusUnknown     Status = "unknown"
	StatusUnavailable Status = "unavailable"
	StatusNoPointer   Status = "no-pointer"
	StatusNotChecked  Status = "not-checked"
)

// MechanismResult is the outcome of checking one mechanism.
type MechanismResult struct {
	Status Status
	// Source is the URL consulted (or "staple").
	Source string
	// Bytes is the response size — the client's bandwidth cost (§5).
	Bytes int
	// Detail carries revocation time/reason or the error encountered.
	Detail string
}

// CertAudit is the audit of one chain element.
type CertAudit struct {
	Subject    string
	Issuer     string
	Serial     string
	NotBefore  time.Time
	NotAfter   time.Time
	EV         bool
	IsCA       bool
	SelfSigned bool

	CRL    MechanismResult
	OCSP   MechanismResult
	Staple MechanismResult
}

// Revoked reports whether any mechanism proved revocation.
func (c *CertAudit) Revoked() bool {
	return c.CRL.Status == StatusRevoked || c.OCSP.Status == StatusRevoked || c.Staple.Status == StatusRevoked
}

// Report is a full endpoint audit.
type Report struct {
	Target    string
	AuditedAt time.Time
	// ChainValid reports whether a path to a trusted root was found
	// (always true when no roots were configured — the audit then
	// trusts the presented order).
	ChainValid bool
	// StaplePresented reports whether the server stapled an OCSP
	// response into the handshake.
	StaplePresented bool
	Certs           []CertAudit
	// TotalBytes is the bandwidth revocation checking cost.
	TotalBytes int
}

// Verdict summarizes the audit: "revoked" if any element is revoked,
// "unchecked" if nothing could be verified, "incomplete" if some mechanism
// was unavailable, else "good".
func (r *Report) Verdict() string {
	anyGood, anyUnavailable := false, false
	for i := range r.Certs {
		c := &r.Certs[i]
		if c.Revoked() {
			return "revoked"
		}
		if c.CRL.Status == StatusGood || c.OCSP.Status == StatusGood || c.Staple.Status == StatusGood {
			anyGood = true
		}
		if c.CRL.Status == StatusUnavailable || c.OCSP.Status == StatusUnavailable {
			anyUnavailable = true
		}
	}
	switch {
	case anyUnavailable:
		return "incomplete"
	case anyGood:
		return "good"
	default:
		return "unchecked"
	}
}

// Render formats the report for terminal output.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audit of %s at %s\n", r.Target, r.AuditedAt.Format(time.RFC3339))
	fmt.Fprintf(&sb, "verdict: %s (chain valid: %t, staple presented: %t, %d bytes fetched)\n",
		r.Verdict(), r.ChainValid, r.StaplePresented, r.TotalBytes)
	for i, c := range r.Certs {
		fmt.Fprintf(&sb, "[%d] %s (serial %s", i, c.Subject, c.Serial)
		if c.EV {
			sb.WriteString(", EV")
		}
		if c.IsCA {
			sb.WriteString(", CA")
		}
		fmt.Fprintf(&sb, ")\n")
		fmt.Fprintf(&sb, "    valid %s .. %s\n", c.NotBefore.Format("2006-01-02"), c.NotAfter.Format("2006-01-02"))
		for _, m := range []struct {
			name string
			res  MechanismResult
		}{{"crl", c.CRL}, {"ocsp", c.OCSP}, {"staple", c.Staple}} {
			if m.res.Status == StatusNotChecked && m.name == "staple" {
				continue
			}
			fmt.Fprintf(&sb, "    %-6s %-12s %s", m.name, m.res.Status, m.res.Source)
			if m.res.Bytes > 0 {
				fmt.Fprintf(&sb, " (%d bytes)", m.res.Bytes)
			}
			if m.res.Detail != "" {
				fmt.Fprintf(&sb, " — %s", m.res.Detail)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Auditor audits live TLS endpoints.
type Auditor struct {
	// Roots, when non-nil, is the trust anchor pool for path validation;
	// the presented chain is used as-is otherwise.
	Roots *chain.Pool
	// HTTP performs CRL/OCSP fetches; http.DefaultClient when nil.
	HTTP *http.Client
	// Timeout bounds the TLS handshake and each CRL download and OCSP
	// query (default 10s).
	Timeout time.Duration
	// Now supplies the validation time; time.Now when nil.
	Now func() time.Time
}

func (a *Auditor) now() time.Time {
	if a.Now != nil {
		return a.Now()
	}
	return time.Now()
}

func (a *Auditor) timeout() time.Duration {
	if a.Timeout > 0 {
		return a.Timeout
	}
	return 10 * time.Second
}

// Audit connects to addr (host:port), captures the chain and staple, and
// checks every element's revocation status end to end.
func (a *Auditor) Audit(addr string) (*Report, error) {
	grab, err := scan.Grab(addr, a.timeout())
	if err != nil {
		return nil, err
	}
	return a.AuditChain(addr, grab.Chain, grab.Staple)
}

// AuditChain audits an already-captured chain (leaf first) and optional
// staple. It is the offline half of Audit, usable on stored scan data.
func (a *Auditor) AuditChain(target string, certs []*x509x.Certificate, staple []byte) (*Report, error) {
	if len(certs) == 0 {
		return nil, fmt.Errorf("core: empty chain for %s", target)
	}
	report := &Report{
		Target:     target,
		AuditedAt:  a.now(),
		ChainValid: true,
	}
	// Path validation against configured roots, using presented
	// intermediates.
	if a.Roots != nil {
		intermediates := chain.NewPool()
		for _, c := range certs[1:] {
			intermediates.Add(c)
		}
		verifier := &chain.Verifier{Roots: a.Roots, Intermediates: intermediates}
		if _, err := verifier.Verify(certs[0], chain.Options{At: a.now()}); err != nil {
			report.ChainValid = false
		}
	}

	for i, cert := range certs {
		audit := CertAudit{
			Subject:    cert.Subject.String(),
			Issuer:     cert.Issuer.String(),
			Serial:     cert.SerialNumber.String(),
			NotBefore:  cert.NotBefore,
			NotAfter:   cert.NotAfter,
			EV:         cert.IsEV(),
			IsCA:       cert.IsCA,
			SelfSigned: x509x.NamesEqual(cert.RawIssuer, cert.RawSubject),
			CRL:        MechanismResult{Status: StatusNoPointer},
			OCSP:       MechanismResult{Status: StatusNoPointer},
			Staple:     MechanismResult{Status: StatusNotChecked},
		}
		// Roots are exempt from revocation checking; an issuer is
		// needed for signature verification anyway.
		var issuer *x509x.Certificate
		if i+1 < len(certs) {
			issuer = certs[i+1]
		}
		if audit.SelfSigned || issuer == nil {
			report.Certs = append(report.Certs, audit)
			continue
		}
		if len(cert.CRLDistributionPoints) > 0 {
			audit.CRL = a.checkCRL(cert, issuer, report)
		}
		if len(cert.OCSPServers) > 0 {
			audit.OCSP = a.checkOCSP(cert, issuer, report)
		}
		if i == 0 && len(staple) > 0 {
			report.StaplePresented = true
			audit.Staple = a.checkStaple(cert, issuer, staple)
		}
		report.Certs = append(report.Certs, audit)
	}
	return report, nil
}

// checkCRL, checkOCSP and checkStaple hold the auditor's policy only: the
// rule is crl.Check and the OCSP check; each class maps to Status, Detail.
func (a *Auditor) checkCRL(cert, issuer *x509x.Certificate, report *Report) MechanismResult {
	res := MechanismResult{Status: StatusUnavailable}
	for _, url := range cert.CRLDistributionPoints {
		res.Source = url
		ctx, cancel := context.WithTimeout(context.Background(), a.timeout())
		body, err := crl.Download(ctx, a.HTTP, url)
		cancel()
		if err != nil {
			res.Detail = err.Error()
			continue
		}
		res.Bytes = len(body)
		report.TotalBytes += len(body)
		parsed, err := crl.Check(body, issuer, a.now())
		if err != nil {
			res.Detail = err.Error() // unparseable or a bad signature
			if errors.Is(err, crl.ErrNotCurrent) {
				res.Detail = "CRL outside validity window"
			}
			continue
		}
		if entry, ok := parsed.LookupSerial(cert.SerialBytes()); ok {
			res.Status = StatusRevoked
			res.Detail = fmt.Sprintf("revoked %s (%s)", entry.RevokedAt.Format("2006-01-02"), entry.Reason)
		} else {
			res.Status = StatusGood
			res.Detail = fmt.Sprintf("%d entries", len(parsed.Entries))
		}
		return res
	}
	return res
}

func (a *Auditor) checkOCSP(cert, issuer *x509x.Certificate, report *Report) MechanismResult {
	res := MechanismResult{Status: StatusUnavailable}
	client := &ocsp.Client{HTTP: a.HTTP}
	for _, url := range cert.OCSPServers {
		res.Source = url
		ctx, cancel := context.WithTimeout(context.Background(), a.timeout())
		sr, err := client.CheckContext(ctx, url, issuer, cert.SerialNumber, a.now())
		cancel()
		notCurrent := errors.Is(err, ocsp.ErrNotCurrent)
		if err != nil && !notCurrent { // fetch, responder, signature or coverage
			res.Detail = err.Error()
			continue
		}
		// OCSP responses are ~1 KB (§5.2); exact accounting happens in
		// the HTTP layer for simnet clients, so record a nominal size.
		res.Bytes = 1000
		report.TotalBytes += res.Bytes
		if notCurrent {
			res.Detail = "response outside validity window"
			continue
		}
		setOCSPStatus(&res, sr)
		return res
	}
	return res
}

func (a *Auditor) checkStaple(leaf, issuer *x509x.Certificate, staple []byte) MechanismResult {
	res := MechanismResult{Status: StatusUnavailable, Source: "staple", Bytes: len(staple)}
	sr, err := ocsp.CheckStaple(staple, issuer, leaf.SerialNumber, a.now())
	var re *ocsp.ResponderError
	switch {
	case err == nil:
		setOCSPStatus(&res, sr)
	case errors.As(err, &re):
		res.Detail = re.Status.String()
	case errors.Is(err, ocsp.ErrNotCovered):
		res.Detail = "staple does not cover the leaf"
	case errors.Is(err, ocsp.ErrNotCurrent):
		res.Detail = "staple outside validity window"
	default: // unparseable or a bad signature
		res.Detail = err.Error()
	}
	return res
}

// setOCSPStatus records a checked OCSP answer's status in res.
func setOCSPStatus(res *MechanismResult, sr ocsp.SingleResponse) {
	switch sr.Status {
	case ocsp.StatusGood:
		res.Status = StatusGood
	case ocsp.StatusRevoked:
		res.Status = StatusRevoked
		res.Detail = fmt.Sprintf("revoked %s (%s)", sr.RevokedAt.Format("2006-01-02"), sr.Reason)
	default:
		res.Status = StatusUnknown
	}
}
