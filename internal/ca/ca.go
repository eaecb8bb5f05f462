// Package ca implements a certificate authority: issuance (domain- and
// extended-validation), revocation with reason codes, sharded CRL
// generation, an OCSP source, and HTTP distribution of both — the full
// server side of the revocation ecosystem the paper measures.
//
// Issuance comes in two speeds. Issue produces a real, signed DER
// certificate (used by the live TLS and browser-test paths). IssueRecord
// produces only the CA's book-keeping record — serial, validity, shard,
// revocation-pointer flags — without any public-key cryptography, which is
// what lets the simulated ecosystem carry hundreds of thousands of
// certificates. Both kinds share the same revocation machinery, and the
// CRLs and OCSP responses generated for them are real DER, so every
// downstream consumer (crawler, browser engine, CRLSet generator) runs on
// genuine wire formats.
package ca

import (
	"crypto/ecdsa"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

// Config describes a CA's policies.
type Config struct {
	// Name is the CA's display name ("GoDaddy").
	Name string
	// Subject is the issuing certificate's distinguished name; derived
	// from Name when zero.
	Subject x509x.Name
	// NumCRLShards is how many CRLs the CA maintains; issued
	// certificates are assigned round-robin. CAs use few, large CRLs in
	// practice (Table 1: GoDaddy 322, RapidSSL 5); 1 when zero.
	NumCRLShards int
	// SerialBytes is the length of randomly generated serial numbers.
	// Serial-number policy drives CRL entry size (§5.2, Figure 5): some
	// CAs use serials of up to 49 decimal digits (~21 bytes). 8 when
	// zero.
	SerialBytes int
	// CRLValidity is the CRL nextUpdate - thisUpdate window. 95% of
	// CRLs expire in less than 24 hours (§5.2); 24h when zero.
	CRLValidity time.Duration
	// OCSPValidity is the OCSP-response window, typically days (§2.2).
	// 96h when zero.
	OCSPValidity time.Duration
	// CRLBaseURL and OCSPBaseURL are the distribution endpoints placed
	// into issued certificates; shard i is served at
	// <CRLBaseURL>/<i>.crl.
	CRLBaseURL  string
	OCSPBaseURL string
	// IncludeCRLDP / IncludeOCSP control whether newly issued
	// certificates carry the corresponding pointers. Figure 4 tracks CA
	// adoption of these over time; they can be toggled mid-simulation.
	IncludeCRLDP bool
	IncludeOCSP  bool
	// ShardSkew, when positive, assigns certificates to CRL shards with
	// Zipf-like weights (shard i gets weight 1/(i+1)^ShardSkew) instead
	// of round-robin. Real CAs concentrate most certificates on a few
	// large CRLs, which is why the certificate-weighted CRL-size
	// distribution is so much heavier than the raw one (§5.2, Figure 6).
	ShardSkew float64
	// DropExpiredFromCRL removes entries for expired certificates from
	// freshly generated CRLs, as real CAs do.
	DropExpiredFromCRL bool
	// ReuseUnchangedCRL caches each shard's encoded CRL and serves the
	// cached DER for as long as the shard's revocation set is unchanged,
	// skipping the ECDSA re-sign. The reused CRL keeps its original
	// thisUpdate/nextUpdate, so only enable this for consumers that do
	// not enforce CRL freshness (the simulation's crawler pipeline).
	ReuseUnchangedCRL bool
	// DelegatedOCSP, when set, has the CA issue a dedicated
	// OCSP-signing certificate (id-kp-OCSPSigning EKU, RFC 6960
	// §4.2.2.2) and sign responses with it instead of the CA key.
	DelegatedOCSP bool
	// PublishRevocationsImmediately makes the HTTP handler regenerate a
	// shard's CRL as soon as a revocation lands in it, instead of
	// serving the cached copy until its validity window lapses. Real
	// CAs batch revocations into periodic re-signs (the paper-faithful
	// default); the chaos harness and the availability experiment opt
	// in so a revocation becomes observable on the very next fetch.
	PublishRevocationsImmediately bool
	// Clock supplies the current (virtual) time; time.Now when nil.
	Clock func() time.Time
	// Seed makes serial-number generation deterministic.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Subject.IsZero() {
		c.Subject = x509x.Name{CommonName: c.Name + " CA", Organization: c.Name}
	}
	if c.NumCRLShards <= 0 {
		c.NumCRLShards = 1
	}
	if c.SerialBytes <= 0 {
		c.SerialBytes = 8
	}
	if c.CRLValidity <= 0 {
		c.CRLValidity = 24 * time.Hour
	}
	if c.OCSPValidity <= 0 {
		c.OCSPValidity = 96 * time.Hour
	}
}

// Record is the CA's book-keeping entry for one issued certificate.
type Record struct {
	CAName     string
	Serial     *big.Int
	CommonName string
	NotBefore  time.Time
	NotAfter   time.Time
	EV         bool
	Shard      int
	HasCRLDP   bool
	HasOCSP    bool
	CRLURL     string // empty when HasCRLDP is false
	OCSPURL    string // empty when HasOCSP is false
	IssuedAt   time.Time

	// serialMag caches Serial's big-endian magnitude (what crl.Entry
	// carries and what the corpus interns), so per-sighting consumers
	// never re-derive it. Set by IssueRecord; InternSerial fills it for
	// records built by hand.
	serialMag []byte
}

// FreshAt reports whether t is inside the record's validity window.
func (r *Record) FreshAt(t time.Time) bool {
	return !t.Before(r.NotBefore) && !t.After(r.NotAfter)
}

// InternSerial precomputes the cached serial magnitude. Call it once at
// construction time for records not minted by IssueRecord; it is not
// synchronized with concurrent readers.
func (r *Record) InternSerial() {
	if r.Serial != nil {
		r.serialMag = r.Serial.Bytes()
	}
}

// SerialMagnitude returns the serial's big-endian magnitude, using the
// cached copy when present and computing a fresh one otherwise. Callers
// must not mutate the returned slice.
func (r *Record) SerialMagnitude() []byte {
	if r.serialMag != nil {
		return r.serialMag
	}
	if r.Serial == nil {
		return nil
	}
	return r.Serial.Bytes()
}

// Revocation describes one revoked certificate.
type Revocation struct {
	Serial *big.Int
	At     time.Time
	Reason crl.Reason
	// Record is the revoked certificate's issuance record.
	Record *Record
	// serialMag caches Serial's big-endian magnitude, computed once at
	// Revoke time so CRL entry generation never re-derives it.
	serialMag []byte
}

// CA is a certificate authority.
type CA struct {
	cfg  Config
	cert *x509x.Certificate
	key  *ecdsa.PrivateKey

	mu             sync.Mutex
	rng            *rand.Rand
	issued         map[string]*Record
	issuedSeq      []*Record
	revoked        map[string]*Revocation
	revokedSeq     []*Revocation
	revokedByShard map[int][]*Revocation
	nextShard      int
	// crlNumbers holds one monotonically increasing CRL number per
	// shard. RFC 5280 requires monotonicity per distribution point, not
	// per CA, and per-shard counters keep CRL bytes independent of the
	// order in which concurrent consumers fetch different shards.
	crlNumbers []int64
	// shardSeq counts revocations landing in each shard; together with
	// the entry cache's time window it detects shard-content changes
	// without walking the revocation list.
	shardSeq     []int64
	shardEnts    []shardEntCache
	shardEnc     []shardEncCache
	crlDER       map[int]*crlDEREntry
	crlURLs      []string
	shardWeights []float64 // cumulative, when ShardSkew > 0

	// delegate is the lazily issued OCSP-signing certificate.
	delegate    *x509x.Certificate
	delegateKey *ecdsa.PrivateKey

	// revokeHooks run after every successful Revoke, outside the CA lock.
	// The OCSP serving cache registers here to evict pre-signed entries.
	revokeHooks []func(serial *big.Int)

	// revEpoch counts successful Revoke calls; the CRL-serving cache
	// compares it against the epoch a cached shard was built at when
	// PublishRevocationsImmediately is set.
	revEpoch atomic.Int64

	// handler is what Handler returns, built on its first call.
	handlerOnce sync.Once
	handler     http.Handler
}

func serialKey(serial *big.Int) string { return string(serial.Bytes()) }

// NewRoot creates a self-signed root CA.
func NewRoot(cfg Config) (*CA, error) {
	return newCA(cfg, nil)
}

// NewIntermediate creates a CA whose certificate is signed by parent.
func NewIntermediate(cfg Config, parent *CA) (*CA, error) {
	if parent == nil {
		return nil, fmt.Errorf("ca: intermediate %q needs a parent", cfg.Name)
	}
	return newCA(cfg, parent)
}

func newCA(cfg Config, parent *CA) (*CA, error) {
	cfg.fillDefaults()
	key, err := x509x.PooledKey()
	if err != nil {
		return nil, fmt.Errorf("ca: keygen: %v", err)
	}
	now := time.Now()
	if cfg.Clock != nil {
		now = cfg.Clock()
	}
	notBefore, notAfter := now.AddDate(-1, 0, 0), now.AddDate(15, 0, 0)
	tmpl := x509x.NewTemplate(big.NewInt(1), cfg.Subject, notBefore, notAfter)
	tmpl.IsCA = true
	tmpl.KeyUsage = x509x.KeyUsageCertSign | x509x.KeyUsageCRLSign | x509x.KeyUsageDigitalSignature
	var raw []byte
	if parent == nil {
		raw, err = x509x.Create(tmpl, nil, key, &key.PublicKey)
	} else {
		// The intermediate is a certificate the parent issued: register
		// it in the parent's book so the parent's CRLs and OCSP
		// responder are authoritative for it, and point its revocation
		// extensions at the parent's endpoints.
		rec := parent.IssueRecord(IssueOptions{
			CommonName: cfg.Subject.CommonName,
			NotBefore:  notBefore,
			NotAfter:   notAfter,
		})
		tmpl.SerialNumber = rec.Serial
		if rec.HasCRLDP {
			tmpl.CRLDistributionPoints = []string{rec.CRLURL}
		}
		if rec.HasOCSP {
			tmpl.OCSPServers = []string{rec.OCSPURL}
		}
		raw, err = x509x.Create(tmpl, parent.cert, parent.key, &key.PublicKey)
	}
	if err != nil {
		return nil, fmt.Errorf("ca: creating CA certificate: %v", err)
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		return nil, err
	}
	authority := &CA{
		cfg:            cfg,
		cert:           cert,
		key:            key,
		rng:            rand.New(rand.NewSource(cfg.Seed ^ int64(len(cfg.Name)))),
		issued:         make(map[string]*Record),
		revoked:        make(map[string]*Revocation),
		revokedByShard: make(map[int][]*Revocation),
		crlNumbers:     make([]int64, cfg.NumCRLShards),
		shardSeq:       make([]int64, cfg.NumCRLShards),
		shardEnts:      make([]shardEntCache, cfg.NumCRLShards),
		shardEnc:       make([]shardEncCache, cfg.NumCRLShards),
		crlDER:         make(map[int]*crlDEREntry),
		crlURLs:        make([]string, cfg.NumCRLShards),
	}
	for i := range authority.crlURLs {
		authority.crlURLs[i] = fmt.Sprintf("%s/%d.crl", cfg.CRLBaseURL, i)
	}
	if cfg.ShardSkew > 0 && cfg.NumCRLShards > 1 {
		weights := make([]float64, cfg.NumCRLShards)
		var total float64
		for i := range weights {
			total += 1 / math.Pow(float64(i+1), cfg.ShardSkew)
			weights[i] = total
		}
		for i := range weights {
			weights[i] /= total
		}
		authority.shardWeights = weights
	}
	return authority, nil
}

// pickShardLocked selects the shard for a new certificate: weighted random
// when ShardSkew is configured, round-robin otherwise.
func (ca *CA) pickShardLocked() int {
	if ca.shardWeights == nil {
		s := ca.nextShard
		ca.nextShard = (ca.nextShard + 1) % ca.cfg.NumCRLShards
		return s
	}
	r := ca.rng.Float64()
	for i, w := range ca.shardWeights {
		if r <= w {
			return i
		}
	}
	return len(ca.shardWeights) - 1
}

// Certificate returns the CA's own certificate.
func (ca *CA) Certificate() *x509x.Certificate { return ca.cert }

// Signer returns the CA's certificate and private key, for callers that
// need to countersign (e.g. delegated test-suite servers).
func (ca *CA) Signer() (*x509x.Certificate, *ecdsa.PrivateKey) { return ca.cert, ca.key }

// Name returns the CA's display name.
func (ca *CA) Name() string { return ca.cfg.Name }

// NumShards returns the number of CRL shards.
func (ca *CA) NumShards() int { return ca.cfg.NumCRLShards }

// CRLURL returns the distribution-point URL of shard i.
func (ca *CA) CRLURL(shard int) string {
	if shard >= 0 && shard < len(ca.crlURLs) {
		return ca.crlURLs[shard]
	}
	return fmt.Sprintf("%s/%d.crl", ca.cfg.CRLBaseURL, shard)
}

// OCSPURL returns the OCSP responder URL.
func (ca *CA) OCSPURL() string { return ca.cfg.OCSPBaseURL }

func (ca *CA) now() time.Time {
	if ca.cfg.Clock != nil {
		return ca.cfg.Clock()
	}
	return time.Now()
}

// IssueOptions describes a certificate to issue.
type IssueOptions struct {
	CommonName string
	DNSNames   []string
	NotBefore  time.Time
	NotAfter   time.Time
	// EV marks the certificate with the EV policy OID.
	EV bool
	// OmitCRLDP / OmitOCSP suppress the respective pointer even when the
	// CA's policy would include it (0.09% of leaf certificates carry
	// neither and can never be revoked, §3.2).
	OmitCRLDP bool
	OmitOCSP  bool
	// PublicKey is the subject key for full issuance. Shared keys are
	// fine for simulation purposes (key material does not affect any
	// revocation statistic).
	PublicKey *ecdsa.PublicKey
}

// IssueRecord registers a new certificate without building DER — the fast
// path for large simulated populations.
func (ca *CA) IssueRecord(opts IssueOptions) *Record {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.issueRecordLocked(opts)
}

func (ca *CA) issueRecordLocked(opts IssueOptions) *Record {
	serial := ca.newSerialLocked()
	rec := &Record{
		CAName:     ca.cfg.Name,
		Serial:     serial,
		CommonName: opts.CommonName,
		NotBefore:  opts.NotBefore,
		NotAfter:   opts.NotAfter,
		EV:         opts.EV,
		Shard:      ca.pickShardLocked(),
		HasCRLDP:   ca.cfg.IncludeCRLDP && !opts.OmitCRLDP && ca.cfg.CRLBaseURL != "",
		HasOCSP:    ca.cfg.IncludeOCSP && !opts.OmitOCSP && ca.cfg.OCSPBaseURL != "",
		IssuedAt:   ca.now(),
	}
	if rec.HasCRLDP {
		rec.CRLURL = ca.CRLURL(rec.Shard)
	}
	if rec.HasOCSP {
		rec.OCSPURL = ca.cfg.OCSPBaseURL
	}
	rec.InternSerial()
	ca.issued[serialKey(serial)] = rec
	ca.issuedSeq = append(ca.issuedSeq, rec)
	return rec
}

func (ca *CA) newSerialLocked() *big.Int {
	for {
		b := make([]byte, ca.cfg.SerialBytes)
		ca.rng.Read(b)
		b[0] &= 0x7f // keep positive
		b[0] |= 0x40 // keep full length so entry sizes are uniform per CA
		serial := new(big.Int).SetBytes(b)
		if _, dup := ca.issued[serialKey(serial)]; !dup {
			return serial
		}
	}
}

// Issue registers and signs a real certificate: IssueRecord, then
// SignRecord.
func (ca *CA) Issue(opts IssueOptions) (*x509x.Certificate, *Record, error) {
	rec := ca.IssueRecord(opts)
	cert, err := ca.SignRecord(rec, opts)
	if err != nil {
		return nil, nil, err
	}
	return cert, rec, nil
}

// SignRecord builds, signs and parses the certificate for rec, a record
// this CA issued from opts. It takes no lock and changes no CA state, so
// any number of records may be signed concurrently, in any order, once
// IssueRecord has fixed their serials and shards in order.
func (ca *CA) SignRecord(rec *Record, opts IssueOptions) (*x509x.Certificate, error) {
	pub := opts.PublicKey
	if pub == nil {
		key, err := x509x.PooledKey()
		if err != nil {
			return nil, err
		}
		pub = &key.PublicKey
	}
	tmpl := x509x.NewTemplate(rec.Serial, x509x.Name{CommonName: opts.CommonName}, opts.NotBefore, opts.NotAfter)
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature | x509x.KeyUsageKeyEncipherment
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUServerAuth}
	tmpl.DNSNames = opts.DNSNames
	if rec.HasCRLDP {
		tmpl.CRLDistributionPoints = []string{rec.CRLURL}
	}
	if rec.HasOCSP {
		tmpl.OCSPServers = []string{rec.OCSPURL}
	}
	if opts.EV {
		tmpl.PolicyOIDs = []x509x.OID{x509x.OIDPolicyVerisignEV}
	}
	raw, err := x509x.Create(tmpl, ca.cert, ca.key, pub)
	if err != nil {
		return nil, err
	}
	return x509x.Parse(raw)
}

// OnRevoke registers fn to run after every successful Revoke, outside the
// CA's lock (fn may call back into the CA). Registration is not otherwise
// synchronized with in-flight Revoke calls: register hooks before serving.
func (ca *CA) OnRevoke(fn func(serial *big.Int)) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revokeHooks = append(ca.revokeHooks, fn)
}

// Revoke marks the certificate with the given serial revoked at time at.
// Revoking an unknown or already-revoked serial is an error. Once Revoke
// returns, registered OnRevoke hooks have run, so caches wired through
// them can no longer serve the pre-revocation status.
func (ca *CA) Revoke(serial *big.Int, at time.Time, reason crl.Reason) error {
	ca.mu.Lock()
	key := serialKey(serial)
	rec, ok := ca.issued[key]
	if !ok {
		ca.mu.Unlock()
		return fmt.Errorf("ca %s: revoke: unknown serial %v", ca.cfg.Name, serial)
	}
	if _, dup := ca.revoked[key]; dup {
		ca.mu.Unlock()
		return fmt.Errorf("ca %s: serial %v already revoked", ca.cfg.Name, serial)
	}
	rev := &Revocation{Serial: new(big.Int).Set(serial), At: at, Reason: reason, Record: rec, serialMag: serial.Bytes()}
	ca.revoked[key] = rev
	ca.revokedSeq = append(ca.revokedSeq, rev)
	ca.revokedByShard[rec.Shard] = append(ca.revokedByShard[rec.Shard], rev)
	ca.shardSeq[rec.Shard]++
	hooks := ca.revokeHooks
	ca.mu.Unlock()
	ca.revEpoch.Add(1)
	for _, fn := range hooks {
		fn(serial)
	}
	return nil
}

// IsRevoked reports whether serial has been revoked, and when.
func (ca *CA) IsRevoked(serial *big.Int) (*Revocation, bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	rev, ok := ca.revoked[serialKey(serial)]
	return rev, ok
}

// Issued returns the number of certificates issued.
func (ca *CA) Issued() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return len(ca.issuedSeq)
}

// Revocations returns all revocations in revocation order. The returned
// slice is a copy; the *Revocation values are shared.
func (ca *CA) Revocations() []*Revocation {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make([]*Revocation, len(ca.revokedSeq))
	copy(out, ca.revokedSeq)
	return out
}

// Records returns all issuance records in issuance order (copied slice,
// shared records).
func (ca *CA) Records() []*Record {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make([]*Record, len(ca.issuedSeq))
	copy(out, ca.issuedSeq)
	return out
}

// ShardPopulation returns how many issued certificates are assigned to
// each shard.
func (ca *CA) ShardPopulation() []int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	pop := make([]int, ca.cfg.NumCRLShards)
	for _, rec := range ca.issuedSeq {
		pop[rec.Shard]++
	}
	return pop
}

// CRLEntries returns the entries that belong on shard's CRL at time now.
func (ca *CA) CRLEntries(shard int, now time.Time) []crl.Entry {
	entries, _, _ := ca.crlEntries(shard, now)
	return entries
}

// shardEntCache memoizes one shard's entry list together with the window
// of simulated time over which it is valid: the set only changes when a
// revocation lands in the shard (shardSeq), when a future-dated
// revocation activates, or — with DropExpiredFromCRL — when an included
// certificate expires. The window bounds the latter two exactly, so daily
// re-reads of an unchanged shard are O(1). While the window holds, new
// revocations extend the cached list incrementally (O(delta), appended in
// place); only a lapsed window forces a full rebuild, which bumps resets
// and thereby invalidates the shard's append-only encode cache.
type shardEntCache struct {
	seq    int64
	gen    int64 // rebuild counter; 0 means never built
	resets int64 // full (non-incremental) rebuild counter
	upto   int   // revokedByShard index the cached list has consumed
	from   time.Time
	// until is the earliest future boundary (activation or expiry) at
	// which the cached set may change; zero when there is none.
	until   time.Time
	entries []crl.Entry
}

// crlEntries returns the shard's entry list at time now plus the cache
// generation it came from (a new generation per rebuild or extension) and
// the full-rebuild counter. The returned slice is shared across callers
// and must not be mutated; incremental extensions only ever append beyond
// previously returned lengths.
func (ca *CA) crlEntries(shard int, now time.Time) ([]crl.Entry, int64, int64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	st := &ca.shardEnts[shard]
	revs := ca.revokedByShard[shard]
	inWindow := st.gen != 0 && !now.Before(st.from) &&
		(st.until.IsZero() || now.Before(st.until))
	if inWindow && st.seq == ca.shardSeq[shard] {
		return st.entries, st.gen, st.resets
	}
	var entries []crl.Entry
	until := st.until
	start := st.upto
	if !inWindow {
		// Full rebuild: a time boundary passed (or first build). A fresh
		// slice keeps lists previously handed to callers immutable.
		st.resets++
		until = time.Time{}
		start = 0
		entries = make([]crl.Entry, 0, len(revs))
	} else {
		// Same window, new revocations only: extend the cached list with
		// the shard's unconsumed tail.
		entries = st.entries
	}
	tighten := func(t time.Time) {
		if t.After(now) && (until.IsZero() || t.Before(until)) {
			until = t
		}
	}
	for _, rev := range revs[start:] {
		if rev.At.After(now) {
			tighten(rev.At) // not yet revoked in simulated time
			continue
		}
		if ca.cfg.DropExpiredFromCRL {
			if rev.Record.NotAfter.Before(now) {
				continue
			}
			tighten(rev.Record.NotAfter)
		}
		entries = append(entries, crl.Entry{Serial: rev.serialMag, RevokedAt: rev.At, Reason: rev.Reason})
	}
	st.seq = ca.shardSeq[shard]
	st.gen++
	st.upto = len(revs)
	st.from = now
	st.until = until
	st.entries = entries
	return entries, st.gen, st.resets
}

// crlDEREntry caches one shard's encoded CRL, keyed by the entry-cache
// generation it was built from.
type crlDEREntry struct {
	gen  int64
	body []byte
}

// shardEncCache is one shard's append-only entry-encoding cache plus the
// entry-cache reset counter it was built against: when the entry list is
// fully rebuilt (time-boundary crossings), the encodings are rebuilt too;
// when the list merely grows, only the new entries are encoded.
type shardEncCache struct {
	resets int64
	cache  crl.EncodeCache
}

// CRLBytes builds and signs the current CRL for shard, DER-encoding only
// the entries added since the previous signing (the encode cache). With
// ReuseUnchangedCRL configured, the previously encoded DER is returned
// as long as the shard's revocation set is unchanged; callers must not
// mutate the returned slice.
func (ca *CA) CRLBytes(shard int) ([]byte, error) {
	if shard < 0 || shard >= ca.cfg.NumCRLShards {
		return nil, fmt.Errorf("ca %s: no CRL shard %d", ca.cfg.Name, shard)
	}
	now := ca.now()
	entries, gen, resets := ca.crlEntries(shard, now)
	if ca.cfg.ReuseUnchangedCRL {
		ca.mu.Lock()
		if e, ok := ca.crlDER[shard]; ok && e.gen == gen {
			body := e.body
			ca.mu.Unlock()
			return body, nil
		}
		ca.mu.Unlock()
	}
	ca.mu.Lock()
	ca.crlNumbers[shard]++
	number := ca.crlNumbers[shard]
	ec := &ca.shardEnc[shard]
	if ec.resets != resets {
		ec.cache.Reset()
		ec.resets = resets
	}
	encoded, encErr := ec.cache.Extend(entries)
	ca.mu.Unlock()
	if encErr != nil {
		return nil, encErr
	}
	// Signing happens outside the lock; the encoded entries stay
	// immutable even if concurrent signings extend or reset the shard's
	// cache.
	body, err := crl.CreateEncoded(&crl.Template{
		ThisUpdate: now,
		NextUpdate: now.Add(ca.cfg.CRLValidity),
		Number:     big.NewInt(number),
	}, encoded, ca.cert, ca.key)
	if err != nil || !ca.cfg.ReuseUnchangedCRL {
		return body, err
	}
	ca.mu.Lock()
	ca.crlDER[shard] = &crlDEREntry{gen: gen, body: body}
	ca.mu.Unlock()
	return body, nil
}

// OCSPSource returns an ocsp.Source answering for this CA's certificates.
func (ca *CA) OCSPSource() ocsp.Source {
	caID := ocsp.NewCertID(ca.cert, big.NewInt(1))
	return ocsp.SourceFunc(func(id ocsp.CertID) ocsp.SingleResponse {
		// A responder must answer unknown for certificates it is not
		// authoritative for.
		probe := ocsp.CertID{
			IssuerNameHash: caID.IssuerNameHash,
			IssuerKeyHash:  caID.IssuerKeyHash,
			Serial:         id.Serial,
		}
		if !probe.Equal(id) {
			return ocsp.SingleResponse{Status: ocsp.StatusUnknown}
		}
		ca.mu.Lock()
		defer ca.mu.Unlock()
		now := ca.now()
		key := serialKey(id.Serial)
		if rev, ok := ca.revoked[key]; ok {
			if !rev.At.After(now) {
				return ocsp.SingleResponse{
					Status:    ocsp.StatusRevoked,
					RevokedAt: rev.At,
					Reason:    rev.Reason,
				}
			}
			// Revocation recorded but not yet active in simulated time:
			// still good, but the response must not outlive the
			// activation or a cache could replay stale Good.
			if _, ok := ca.issued[key]; ok {
				next := now.Add(ca.cfg.OCSPValidity)
				if rev.At.Before(next) {
					next = rev.At
				}
				return ocsp.SingleResponse{
					Status:     ocsp.StatusGood,
					ThisUpdate: now,
					NextUpdate: next,
				}
			}
		}
		if _, ok := ca.issued[key]; ok {
			return ocsp.SingleResponse{Status: ocsp.StatusGood}
		}
		return ocsp.SingleResponse{Status: ocsp.StatusUnknown}
	})
}

// Responder returns an HTTP OCSP responder for this CA, signing with a
// delegated responder certificate when DelegatedOCSP is configured.
func (ca *CA) Responder() *ocsp.Responder {
	signer, key := ca.cert, ca.key
	if ca.cfg.DelegatedOCSP {
		if delegate, delegateKey, err := ca.ocspDelegate(); err == nil {
			signer, key = delegate, delegateKey
		}
	}
	return &ocsp.Responder{
		Source:   ca.OCSPSource(),
		Signer:   signer,
		Key:      key,
		Now:      ca.now,
		Validity: ca.cfg.OCSPValidity,
	}
}

// CachingResponder returns the CA's production-shaped OCSP serving plane:
// the Responder wrapped in a pre-signed response cache whose entries are
// evicted by this CA's revocations (via OnRevoke), so a revoked serial is
// never served a stale Good once Revoke has returned.
func (ca *CA) CachingResponder() *ocsp.CachingResponder {
	cached := ocsp.NewCachingResponder(ca.Responder())
	issuer := ca.cert
	ca.OnRevoke(func(serial *big.Int) {
		cached.EvictCertID(ocsp.NewCertID(issuer, serial))
	})
	return cached
}

// ocspDelegate lazily issues (once) the CA's delegated OCSP-signing
// certificate.
func (ca *CA) ocspDelegate() (*x509x.Certificate, *ecdsa.PrivateKey, error) {
	ca.mu.Lock()
	if ca.delegate != nil {
		cert, key := ca.delegate, ca.delegateKey
		ca.mu.Unlock()
		return cert, key, nil
	}
	ca.mu.Unlock()

	key, err := x509x.PooledKey()
	if err != nil {
		return nil, nil, err
	}
	ca.mu.Lock()
	rec := ca.issueRecordLocked(IssueOptions{
		CommonName: ca.cfg.Name + " OCSP Responder",
		NotBefore:  ca.now().AddDate(0, -1, 0),
		NotAfter:   ca.now().AddDate(2, 0, 0),
		OmitCRLDP:  true,
		OmitOCSP:   true,
	})
	ca.mu.Unlock()
	tmpl := x509x.NewTemplate(rec.Serial, x509x.Name{CommonName: rec.CommonName}, rec.NotBefore, rec.NotAfter)
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUOCSPSigning}
	raw, err := x509x.Create(tmpl, ca.cert, ca.key, &key.PublicKey)
	if err != nil {
		return nil, nil, err
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		return nil, nil, err
	}
	ca.mu.Lock()
	ca.delegate, ca.delegateKey = cert, key
	ca.mu.Unlock()
	return cert, key, nil
}
