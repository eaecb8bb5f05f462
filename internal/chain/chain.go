// Package chain implements certificate path building and verification over
// root and intermediate pools, including the iterative Intermediate Set
// discovery procedure of §3.1: starting from the trusted roots, an
// intermediate is admitted once a chain for it verifies against the roots
// plus the intermediates admitted so far, and the process repeats to a
// fixpoint.
//
// Cross-signed intermediates (the same subject and key signed by multiple
// issuers) produce multiple valid chains for one leaf; Verify returns all
// of them, mirroring the behaviour the paper notes in §2.1.
package chain

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/x509x"
)

// Pool is a set of certificates indexed by subject name for issuer lookup.
type Pool struct {
	certs     []*x509x.Certificate
	bySubject map[string][]*x509x.Certificate
	byRaw     map[string]bool
}

// NewPool returns a pool holding the given certificates.
func NewPool(certs ...*x509x.Certificate) *Pool {
	p := &Pool{
		bySubject: make(map[string][]*x509x.Certificate),
		byRaw:     make(map[string]bool),
	}
	for _, c := range certs {
		p.Add(c)
	}
	return p
}

// Add inserts a certificate; duplicates (by raw bytes) are ignored.
func (p *Pool) Add(c *x509x.Certificate) {
	if p.byRaw[string(c.Raw)] {
		return
	}
	p.byRaw[string(c.Raw)] = true
	p.certs = append(p.certs, c)
	key := string(c.RawSubject)
	p.bySubject[key] = append(p.bySubject[key], c)
}

// Contains reports whether the exact certificate is in the pool.
func (p *Pool) Contains(c *x509x.Certificate) bool { return p.byRaw[string(c.Raw)] }

// FindBySubject returns the certificates whose subject matches the raw
// issuer name.
func (p *Pool) FindBySubject(rawName []byte) []*x509x.Certificate {
	return p.bySubject[string(rawName)]
}

// Certs returns all certificates in insertion order. The caller must not
// modify the returned slice.
func (p *Pool) Certs() []*x509x.Certificate { return p.certs }

// Len returns the number of certificates in the pool.
func (p *Pool) Len() int { return len(p.certs) }

// VerifyError explains why no chain could be built.
type VerifyError struct {
	Leaf   *x509x.Certificate
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("chain: no valid chain for %q: %s", e.Leaf.Subject, e.Reason)
}

// Options controls verification.
type Options struct {
	// At is the verification time for freshness checks; ignored when
	// IgnoreDates is set.
	At time.Time
	// IgnoreDates skips validity-window checks. The paper's scan
	// pipeline sets this because its 17 months of scans necessarily
	// contain certificates valid at *some* point but not "now" (§3.1).
	IgnoreDates bool
	// EnforceNameConstraints rejects chains whose leaf DNS names fall
	// outside a CA's Name Constraints extension. §2.1 notes the
	// extension is rarely used and few clients support it; this
	// verifier is one of the few.
	EnforceNameConstraints bool
}

// maxDepth bounds the number of certificates in a chain, leaf and root
// included: the root, up to four intermediates and the leaf.
const maxDepth = 6

// Verifier builds and checks chains.
type Verifier struct {
	Roots         *Pool
	Intermediates *Pool
}

// Verify returns every distinct valid chain for leaf, ordered leaf-first
// and ending at a root. Chains are explored intermediates-first so the
// shortest chain tends to come first.
func (v *Verifier) Verify(leaf *x509x.Certificate, opts Options) ([][]*x509x.Certificate, error) {
	if v.Roots == nil || v.Roots.Len() == 0 {
		return nil, errors.New("chain: no trusted roots configured")
	}
	if !opts.IgnoreDates && !leaf.FreshAt(opts.At) {
		return nil, &VerifyError{Leaf: leaf, Reason: fmt.Sprintf("leaf not fresh at %v", opts.At)}
	}
	var chains [][]*x509x.Certificate
	seen := map[string]bool{string(leaf.Raw): true}
	v.extend([]*x509x.Certificate{leaf}, seen, opts, &chains)
	if len(chains) == 0 {
		return nil, &VerifyError{Leaf: leaf, Reason: "no path to a trusted root"}
	}
	return chains, nil
}

func (v *Verifier) extend(current []*x509x.Certificate, seen map[string]bool, opts Options, out *[][]*x509x.Certificate) {
	tip := current[len(current)-1]

	// Self-signed trusted root terminates the chain.
	if v.Roots.Contains(tip) {
		chain := make([]*x509x.Certificate, len(current))
		copy(chain, current)
		*out = append(*out, chain)
		return
	}
	if len(current) >= maxDepth {
		return
	}
	candidates := append([]*x509x.Certificate{}, v.Roots.FindBySubject(tip.RawIssuer)...)
	if v.Intermediates != nil {
		candidates = append(candidates, v.Intermediates.FindBySubject(tip.RawIssuer)...)
	}
	for _, parent := range candidates {
		if seen[string(parent.Raw)] {
			continue // loop (e.g. mutually cross-signed CAs)
		}
		if !parent.IsCA {
			continue
		}
		if parent.KeyUsage != 0 && parent.KeyUsage&x509x.KeyUsageCertSign == 0 {
			continue
		}
		if !opts.IgnoreDates && !parent.FreshAt(opts.At) {
			continue
		}
		if parent.MaxPathLen >= 0 {
			// pathLenConstraint counts intermediates below this CA,
			// excluding the leaf.
			intermediatesBelow := len(current) - 1
			if intermediatesBelow > parent.MaxPathLen {
				continue
			}
		}
		if err := tip.CheckSignatureFrom(parent); err != nil {
			continue
		}
		if opts.EnforceNameConstraints && !satisfiesNameConstraints(current[0], parent) {
			continue
		}
		seen[string(parent.Raw)] = true
		v.extend(append(current, parent), seen, opts, out)
		delete(seen, string(parent.Raw))
	}
}

// DiscoverIntermediates runs the §3.1 iterative procedure: from a corpus of
// candidate CA certificates observed in scans, admit those that verify
// relative to the roots and previously admitted intermediates, looping
// until no new certificate is admitted. It returns the Intermediate Set.
func DiscoverIntermediates(roots *Pool, candidates []*x509x.Certificate, opts Options) *Pool {
	admitted := NewPool()
	remaining := make([]*x509x.Certificate, 0, len(candidates))
	for _, c := range candidates {
		if c.IsCA && !roots.Contains(c) {
			remaining = append(remaining, c)
		}
	}
	for {
		verifier := &Verifier{Roots: roots, Intermediates: admitted}
		var next []*x509x.Certificate
		progressed := false
		for _, c := range remaining {
			if _, err := verifier.Verify(c, opts); err == nil {
				admitted.Add(c)
				progressed = true
			} else {
				next = append(next, c)
			}
		}
		remaining = next
		if !progressed || len(remaining) == 0 {
			return admitted
		}
	}
}

// satisfiesNameConstraints reports whether the leaf's DNS identities fall
// inside the CA's permitted subtrees and outside its excluded ones
// (RFC 5280 §4.2.1.10, restricted to dNSName constraints).
func satisfiesNameConstraints(leaf, authority *x509x.Certificate) bool {
	if len(authority.PermittedDNSDomains) == 0 && len(authority.ExcludedDNSDomains) == 0 {
		return true
	}
	names := leaf.DNSNames
	if len(names) == 0 && leaf.Subject.CommonName != "" {
		names = []string{leaf.Subject.CommonName}
	}
	for _, name := range names {
		if len(authority.PermittedDNSDomains) > 0 {
			ok := false
			for _, domain := range authority.PermittedDNSDomains {
				if dnsMatches(name, domain) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		for _, domain := range authority.ExcludedDNSDomains {
			if dnsMatches(name, domain) {
				return false
			}
		}
	}
	return true
}

// dnsMatches implements the RFC 5280 dNSName constraint rule: the name
// matches when it equals the constraint or is a subdomain of it (a
// leading dot on the constraint requires a strict subdomain).
func dnsMatches(name, constraint string) bool {
	if constraint == "" {
		return true
	}
	if strings.HasPrefix(constraint, ".") {
		return strings.HasSuffix(name, constraint)
	}
	return name == constraint || strings.HasSuffix(name, "."+constraint)
}
