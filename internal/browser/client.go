package browser

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/bloom"
	"repro/internal/cascade"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/faultnet"
	"repro/internal/ocsp"
	"repro/internal/serialx"
	"repro/internal/x509x"
)

// Outcome is the connection-level decision after revocation checking.
type Outcome int

// Outcomes.
const (
	// OutcomeAccept proceeds silently.
	OutcomeAccept Outcome = iota
	// OutcomeWarn proceeds after asking the user (IE 10 style).
	OutcomeWarn
	// OutcomeReject aborts the connection.
	OutcomeReject
)

func (o Outcome) String() string {
	switch o {
	case OutcomeAccept:
		return "accept"
	case OutcomeWarn:
		return "warn"
	case OutcomeReject:
		return "reject"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// status is the result of one revocation lookup.
type status int

const (
	stGood status = iota
	stRevoked
	stUnknown
	stUnavailable
)

func (s status) String() string {
	return [...]string{"good", "revoked", "unknown", "unavailable"}[s]
}

// cachedResult returns the "(cached)" event string for s without
// allocating — event logging sits on the warm verdict path.
func cachedResult(s status) string {
	return [...]string{"good (cached)", "revoked (cached)", "unknown (cached)", "unavailable (cached)"}[s]
}

// Event logs one revocation-checking action, for the harness to inspect
// (e.g. to verify CRL fallback actually fetched the CRL).
type Event struct {
	Subject  string
	Pos      Position
	Protocol string // "ocsp", "crl", "staple", "crlset", "bloom", "cascade"
	Result   string
}

// FastPathStats attributes local fast-path consultations within one
// verdict (CRLite-style cascade; §7: CRLSet; §7.4: Bloom filter).
type FastPathStats struct {
	// CascadeHits counts chain elements the filter cascade answered
	// authoritatively (issuer enrolled, cert predates the snapshot
	// cutoff, snapshot fresh) — exact verdict, no fetch.
	CascadeHits int
	// CascadeMisses counts elements the cascade could not cover
	// (unenrolled issuer or cert newer than the snapshot), which fall
	// through to CRLSet/Bloom/network.
	CascadeMisses int
	// CascadeStale counts elements skipped because the snapshot aged
	// past its max-age — a stale cascade may miss fresh revocations, so
	// the client falls back to the network path.
	CascadeStale int
	// CRLSetHits counts chain elements whose issuer the CRLSet covers —
	// the set is authoritative there, revoked or not, and no fetch runs.
	CRLSetHits int
	// CRLSetMisses counts elements whose issuer the set does not cover
	// (checking falls through to staples and the network).
	CRLSetMisses int
	// BloomNegatives counts definitive not-revoked answers from the
	// filter (no false negatives, so the fetch is skipped).
	BloomNegatives int
	// BloomPositives counts possible-revocation answers that still
	// required a network check (the filter's false-positive cost).
	BloomPositives int
	// BlockedSPKI counts chain elements rejected by the CRLSet's blocked
	// key list.
	BlockedSPKI int
}

// add accumulates other into s, for fleet-level aggregation.
func (s *FastPathStats) Add(other FastPathStats) {
	s.CascadeHits += other.CascadeHits
	s.CascadeMisses += other.CascadeMisses
	s.CascadeStale += other.CascadeStale
	s.CRLSetHits += other.CRLSetHits
	s.CRLSetMisses += other.CRLSetMisses
	s.BloomNegatives += other.BloomNegatives
	s.BloomPositives += other.BloomPositives
	s.BlockedSPKI += other.BlockedSPKI
}

// Verdict is the full result of evaluating one chain.
type Verdict struct {
	Outcome            Outcome
	RevocationDetected bool
	Events             []Event
	// FastPath attributes CRLSet/Bloom consultations made during this
	// evaluation.
	FastPath FastPathStats
}

// reset prepares v for reuse, keeping the Events backing array so a
// warm evaluation appends without allocating.
func (v *Verdict) reset() {
	v.Outcome = OutcomeAccept
	v.RevocationDetected = false
	v.Events = v.Events[:0]
	v.FastPath = FastPathStats{}
}

// Client executes a Profile's revocation checking against presented
// chains, performing real CRL downloads and OCSP queries through HTTP.
// A Client is immutable during use and safe for concurrent Evaluate
// calls from many goroutines; a fleet of simulated browsers can share
// one Client, one Cache, and one HTTP transport.
type Client struct {
	Profile *Profile
	// HTTP performs fetches (a simnet client or a real one).
	HTTP *http.Client
	// Now is the validation time; time.Now when nil.
	Now func() time.Time
	// Cache, when non-nil, reuses CRLs and OCSP responses across
	// evaluations until their validity windows lapse, as real browsers
	// do (§2.2), and collapses concurrent same-URL CRL downloads into one
	// fetch (singleflight). One Cache may be shared by many clients.
	Cache *Cache
	// Cascade, when non-nil, is a CRLite-style filter cascade consulted
	// before CRLSet and Bloom: for enrolled issuers and certs predating
	// its snapshot cutoff it answers revoked-or-not exactly — an
	// authoritative offline verdict over the *complete* revocation
	// corpus, where the CRLSet covers <1%. A stale snapshot (past its
	// max-age) is skipped entirely and checking falls through.
	Cascade *cascade.Filter
	// CascadeShards, when non-nil, is the per-issuer sharded form of the
	// cascade: the client installed only the shards of issuers it trusts
	// (via a signed manifest — cascade.InstallShards), so verdicts route
	// to the issuer's own shard and freshness is tracked per shard.
	// Consulted before the monolithic Cascade; an issuer with no
	// installed shard falls through to it (and then to the network).
	CascadeShards *cascade.ShardSet
	// CRLSet, when non-nil, is consulted as a Chrome-style local fast
	// path before any staple or network fetch (§7): for issuers the set
	// covers it answers revoked-or-not authoritatively without network
	// traffic, and its blocked-SPKI list rejects outright.
	CRLSet *crlset.Set
	// Bloom, when non-nil, is the §7.4 revocation filter, keyed by
	// BloomKey(parent, serial). A negative is definitive (no false
	// negatives) and skips the fetch; a positive falls through to the
	// usual online check.
	Bloom *bloom.Filter
	// Timeout bounds each revocation fetch, the way real browsers cap
	// OCSP lookups at a few seconds before soft-failing (§6.2). It is
	// applied as a context deadline and as a faultnet virtual-time
	// budget, so an unresponsive responder resolves as "unavailable"
	// instead of hanging the handshake. 0 means unbounded.
	Timeout time.Duration
}

// fetchCtx returns the per-fetch context implied by Timeout.
func (c *Client) fetchCtx() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if c.Timeout <= 0 {
		return ctx, func() {}
	}
	ctx = faultnet.WithBudget(ctx, c.Timeout)
	return context.WithTimeout(ctx, c.Timeout)
}

func (c *Client) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// BloomKey appends the revocation-filter key for (parent, serial) to dst:
// the issuer's SPKI hash followed by the canonical serial magnitude
// (serialx.Canon — leading zeros stripped, the zero serial contributes no
// bytes), so two encodings of the same serial value always hash to the
// same key. Both the filter builder and the client fast path must use
// this layout; the cascade uses it too.
func BloomKey(dst []byte, parent crlset.Parent, serial []byte) []byte {
	dst = append(dst, parent[:]...)
	return append(dst, serialx.Canon(serial)...)
}

// Evaluate runs the profile against a chain ordered leaf-first and ending
// at the root, with an optional stapled OCSP response for the leaf. The
// chain must contain at least the leaf and its root. Evaluate assumes the
// chain already passed signature/path validation; it decides only the
// revocation question.
func (c *Client) Evaluate(chainCerts []*x509x.Certificate, staple []byte) (*Verdict, error) {
	var staples [][]byte
	if staple != nil {
		staples = [][]byte{staple}
	}
	return c.EvaluateWithStaples(chainCerts, staples)
}

// EvaluateWithStaples is Evaluate with RFC 6961 multi-stapling: staples[i]
// is the stapled OCSP response for chain element i (nil entries allowed).
// Staples beyond the leaf are consulted only when the profile sets
// MultiStaple.
func (c *Client) EvaluateWithStaples(chainCerts []*x509x.Certificate, staples [][]byte) (*Verdict, error) {
	v := &Verdict{}
	if err := c.EvaluateInto(v, chainCerts, staples); err != nil {
		return nil, err
	}
	return v, nil
}

// EvaluateInto is EvaluateWithStaples writing into a caller-owned
// Verdict, which is reset (its Events capacity reused) before the
// evaluation. A fleet of simulated browsers reuses one Verdict per
// worker so a warm-cache verdict performs no allocations at all.
func (c *Client) EvaluateInto(v *Verdict, chainCerts []*x509x.Certificate, staples [][]byte) error {
	if len(chainCerts) < 2 {
		return errors.New("browser: Evaluate needs a chain of at least leaf and root")
	}
	v.reset()
	leafEV := chainCerts[0].IsEV()
	crlTab, ocspTab, fallback := c.Profile.behaviors(leafEV)

	// Root certificates are exempt from revocation checking (§2.2
	// footnote 4): iterate leaf through last intermediate.
	for i := 0; i < len(chainCerts)-1; i++ {
		cert := chainCerts[i]
		issuer := chainCerts[i+1]
		pos := position(i)
		behPos := pos
		if pos == PosLeaf && len(chainCerts) == 2 && c.Profile.TreatLeafAsInt1 {
			behPos = PosInt1
		}
		behCRL, behOCSP := crlTab[behPos], ocspTab[behPos]

		// Local fast path (§7): consult the CRLSet and Bloom artifacts
		// before staples or any network fetch, the way Chrome checks its
		// shipped CRLSet instead of querying responders.
		if st, decided := c.localFastPath(v, cert, issuer, pos); decided {
			switch st {
			case stGood:
				continue
			case stRevoked:
				v.RevocationDetected = true
				v.Outcome = OutcomeReject
				return nil
			}
		}

		// Stapled response handling: the leaf always, deeper elements
		// only with RFC 6961 multi-stapling.
		var staple []byte
		if i < len(staples) && (i == 0 || c.Profile.MultiStaple) {
			staple = staples[i]
		}
		if len(staple) > 0 && c.Profile.RequestStaple && c.Profile.UseStaple {
			st, ok := c.evalStaple(v, cert, issuer, pos, staple)
			if ok {
				switch st {
				case stGood:
					continue // leaf satisfied without a network fetch
				case stRevoked:
					if c.Profile.RespectRevokedStaple {
						v.RevocationDetected = true
						v.Outcome = OutcomeReject
						return nil
					}
					// Chrome on OS X ignores the stapled revocation
					// and falls through to an online check.
				case stUnknown:
					if c.Profile.RejectUnknown {
						v.Outcome = OutcomeReject
						return nil
					}
					continue // incorrectly treated as trusted
				}
			}
		}

		canOCSP := len(cert.OCSPServers) > 0 && behOCSP.Check &&
			!(behOCSP.OnlyIfSoleProtocol && len(cert.CRLDistributionPoints) > 0)
		canCRL := len(cert.CRLDistributionPoints) > 0 && behCRL.Check &&
			!(behCRL.OnlyIfSoleProtocol && len(cert.OCSPServers) > 0)
		if !canOCSP && !canCRL {
			continue // nothing this browser would check here
		}

		var st status
		var beh Behavior
		if canOCSP {
			st = c.fetchOCSP(v, cert, issuer, pos)
			beh = behOCSP
			if st == stUnavailable && fallback && len(cert.CRLDistributionPoints) > 0 {
				st = c.fetchCRL(v, cert, issuer, pos)
				if st != stUnavailable {
					beh = behCRL
				}
			}
		} else {
			st = c.fetchCRL(v, cert, issuer, pos)
			beh = behCRL
		}

		switch st {
		case stGood:
			// fine; next certificate
		case stRevoked:
			v.RevocationDetected = true
			v.Outcome = OutcomeReject
			return nil
		case stUnknown:
			if c.Profile.RejectUnknown {
				v.Outcome = OutcomeReject
				return nil
			}
		case stUnavailable:
			switch {
			case beh.RejectUnavailable:
				v.Outcome = OutcomeReject
				return nil
			case beh.WarnUnavailable:
				v.Outcome = OutcomeWarn
			}
		}
	}
	return nil
}

// localFastPath consults the client's installed artifacts (cascade shards,
// cascade, CRLSet, Bloom) for (cert, issuer). decided is true when they
// answered the revocation question and no staple or network check should
// run. Every artifact keys on BloomKey(issuer SPKI hash, serial); both
// halves are read from the certificates' memoised identity. A cascade is
// probed at level 1 with the key's digest, which cert memoises under its
// issuer (KeyDigest), so a warm cascade verdict hashes nothing unless
// the key reaches a deeper level.
func (c *Client) localFastPath(v *Verdict, cert, issuer *x509x.Certificate, pos Position) (status, bool) {
	if c.Cascade == nil && c.CascadeShards == nil && c.CRLSet == nil && c.Bloom == nil {
		return stUnavailable, false
	}
	var keyBuf [56]byte // 32-byte parent + serials up to 20 bytes (RFC 5280 §4.1.2.2)
	parent := crlset.Parent(issuer.SPKIHash())
	serial := cert.SerialBytes()
	key := BloomKey(keyBuf[:0], parent, serial)

	if c.CascadeShards != nil {
		// One lookup finds the issuer's shard; freshness, coverage and
		// the verdict are then that filter's own.
		p := cascade.Parent(parent)
		if sh := c.CascadeShards.Shard(p); sh == nil {
			// Untrusted or never-fetched issuer: no local verdict, fall
			// through (monolithic cascade, CRLSet, then the network).
			v.FastPath.CascadeMisses++
		} else if !sh.FreshAt(c.now()) {
			// Per-shard freshness: one stale issuer must not disable the
			// rest of the install.
			v.FastPath.CascadeStale++
			c.log(v, cert, pos, "cascade-shard", "stale")
		} else if sh.Covers(p, cert.NotBefore) {
			v.FastPath.CascadeHits++
			if sh.RevokedDigest(key, cert.KeyDigest(issuer)) {
				c.log(v, cert, pos, "cascade-shard", "revoked")
				return stRevoked, true
			}
			c.log(v, cert, pos, "cascade-shard", "good")
			return stGood, true
		} else {
			v.FastPath.CascadeMisses++
		}
	}

	if c.Cascade != nil {
		if !c.Cascade.FreshAt(c.now()) {
			v.FastPath.CascadeStale++
			c.log(v, cert, pos, "cascade", "stale")
		} else if c.Cascade.Covers(cascade.Parent(parent), cert.NotBefore) {
			// Enrolled and fresh: the cascade's answer is exact, not
			// probabilistic — it is authoritative either way.
			v.FastPath.CascadeHits++
			if c.Cascade.RevokedDigest(key, cert.KeyDigest(issuer)) {
				c.log(v, cert, pos, "cascade", "revoked")
				return stRevoked, true
			}
			c.log(v, cert, pos, "cascade", "good")
			return stGood, true
		} else {
			v.FastPath.CascadeMisses++
		}
	}

	if c.CRLSet != nil {
		if len(c.CRLSet.BlockedSPKIs) > 0 {
			spki := crlset.Parent(cert.SPKIHash())
			for _, blocked := range c.CRLSet.BlockedSPKIs {
				if blocked == spki {
					v.FastPath.BlockedSPKI++
					c.log(v, cert, pos, "crlset", "blocked-spki")
					return stRevoked, true
				}
			}
		}
		if c.CRLSet.HasParent(parent) {
			v.FastPath.CRLSetHits++
			if c.CRLSet.CoversSerial(parent, serial) {
				c.log(v, cert, pos, "crlset", "revoked")
				return stRevoked, true
			}
			c.log(v, cert, pos, "crlset", "good")
			return stGood, true
		}
		v.FastPath.CRLSetMisses++
	}

	if c.Bloom != nil {
		if !c.Bloom.Contains(key) {
			v.FastPath.BloomNegatives++
			c.log(v, cert, pos, "bloom", "good")
			return stGood, true
		}
		v.FastPath.BloomPositives++
		// A positive may be false: fall through to the online check.
	}
	return stUnavailable, false
}

// position classifies index i in a leaf-first chain: the leaf, the first
// intermediate (the leaf's issuer), and everything deeper.
func position(i int) Position {
	switch {
	case i == 0:
		return PosLeaf
	case i == 1:
		return PosInt1
	default:
		return PosIntDeep
	}
}

func (c *Client) log(v *Verdict, cert *x509x.Certificate, pos Position, proto string, result string) {
	v.Events = append(v.Events, Event{
		Subject:  cert.Subject.CommonName,
		Pos:      pos,
		Protocol: proto,
		Result:   result,
	})
}

// evalStaple, fetchOCSP and fetchCRL hold the client's policy only: the
// rule is ocsp.CheckStaple, the OCSP check and crl.Check, and each maps a
// failure class to the event it logs. evalStaple's ok is false when the
// staple is unusable and online checking proceeds as if none were sent.
func (c *Client) evalStaple(v *Verdict, leaf, issuer *x509x.Certificate, pos Position, staple []byte) (status, bool) {
	sr, err := ocsp.CheckStaple(staple, issuer, leaf.SerialNumber, c.now())
	if err != nil {
		result := "invalid"
		switch {
		case errors.Is(err, ocsp.ErrSignature):
			result = "bad-signature"
		case errors.Is(err, ocsp.ErrNotCovered), errors.Is(err, ocsp.ErrNotCurrent):
			result = "stale"
		}
		c.log(v, leaf, pos, "staple", result)
		return stUnavailable, false
	}
	st := fromOCSPStatus(sr.Status)
	c.log(v, leaf, pos, "staple", st.String())
	return st, true
}

func fromOCSPStatus(s ocsp.Status) status {
	switch s {
	case ocsp.StatusGood:
		return stGood
	case ocsp.StatusRevoked:
		return stRevoked
	default:
		return stUnknown
	}
}

func (c *Client) fetchOCSP(v *Verdict, cert, issuer *x509x.Certificate, pos Position) status {
	now := c.now()
	if c.Cache != nil {
		if sr, ok := c.Cache.OCSP(issuer, cert, now); ok {
			st := fromOCSPStatus(sr.Status)
			c.log(v, cert, pos, "ocsp", cachedResult(st))
			return st
		}
	}
	client := &ocsp.Client{HTTP: c.HTTP}
	var last status = stUnavailable
	for _, url := range cert.OCSPServers {
		ctx, cancel := c.fetchCtx()
		sr, err := client.CheckContext(ctx, url, issuer, cert.SerialNumber, now)
		cancel()
		if err != nil {
			// Not current is "stale"; a failed fetch, an error status, a
			// bad signature or a gap in coverage is "unavailable".
			result := "unavailable"
			if errors.Is(err, ocsp.ErrNotCurrent) {
				result = "stale"
			}
			c.log(v, cert, pos, "ocsp", result)
			continue
		}
		if c.Cache != nil {
			c.Cache.PutOCSP(issuer, cert, sr)
		}
		last = fromOCSPStatus(sr.Status)
		c.log(v, cert, pos, "ocsp", last.String())
		return last
	}
	return last
}

func (c *Client) fetchCRL(v *Verdict, cert, issuer *x509x.Certificate, pos Position) status {
	now := c.now()
	for _, url := range cert.CRLDistributionPoints {
		parsed, src, err := c.obtainCRL(url, issuer, now)
		if err != nil {
			// A failed download or an unparseable list is "unavailable".
			result := "unavailable"
			switch {
			case errors.Is(err, crl.ErrSignature):
				result = "bad-signature"
			case errors.Is(err, crl.ErrNotCurrent):
				result = "stale"
			}
			c.log(v, cert, pos, "crl", result)
			continue
		}
		_, revoked := parsed.LookupSerial(cert.SerialBytes())
		st := stGood
		if revoked {
			st = stRevoked
		}
		if src == SourceFetched {
			c.log(v, cert, pos, "crl", st.String())
		} else {
			c.log(v, cert, pos, "crl", cachedResult(st))
		}
		return st
	}
	return stUnavailable
}

// obtainCRL produces a checked CRL for url through the client's cache,
// which deduplicates concurrent downloads per URL (singleflight); no
// cache means a plain download. The lookup comes first and the fetch
// closure (which the compiler puts on the heap) is built only on a miss,
// so a cached CRL costs no allocation.
func (c *Client) obtainCRL(url string, issuer *x509x.Certificate, now time.Time) (*crl.CRL, CRLSource, error) {
	if parsed, ok := c.Cache.CRL(url, now); ok {
		return parsed, SourceCached, nil
	}
	fetch := func() (*crl.CRL, error) {
		ctx, cancel := c.fetchCtx()
		body, err := crl.Download(ctx, c.HTTP, url)
		cancel()
		if err != nil {
			return nil, err
		}
		return crl.Check(body, issuer, now)
	}
	return c.Cache.fetchCRLOnce(url, now, fetch)
}
