// Package crl implements RFC 5280 certificate revocation lists from
// scratch: construction and signing by a CA, strict parsing, signature
// verification, reason codes, and the exact entry-size accounting the
// paper's CRL-cost analyses (Figures 5 and 6) rely on.
//
// The data path is built for Heartbleed-scale lists (GoDaddy's
// post-Heartbleed CRL was ~41 MB, §5.2): Parse materializes entries with
// compact byte-slice serials that alias the raw buffer — no per-entry heap
// allocation — and EncodeCache lets a CA's daily re-sign DER-encode only
// the entries added since the previous signing.
package crl

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/der"
	"repro/internal/x509x"
)

// Reason is a CRL reason code (RFC 5280 §5.3.1). The paper's CRLSet
// analysis distinguishes entries carrying *no* reason-code extension from
// entries with reason Unspecified(0); ReasonAbsent models the former.
type Reason int

// Reason codes.
const (
	ReasonAbsent               Reason = -1
	ReasonUnspecified          Reason = 0
	ReasonKeyCompromise        Reason = 1
	ReasonCACompromise         Reason = 2
	ReasonAffiliationChanged   Reason = 3
	ReasonSuperseded           Reason = 4
	ReasonCessationOfOperation Reason = 5
	ReasonCertificateHold      Reason = 6
	ReasonRemoveFromCRL        Reason = 8
	ReasonPrivilegeWithdrawn   Reason = 9
	ReasonAACompromise         Reason = 10
)

func (r Reason) String() string {
	switch r {
	case ReasonAbsent:
		return "(absent)"
	case ReasonUnspecified:
		return "unspecified"
	case ReasonKeyCompromise:
		return "keyCompromise"
	case ReasonCACompromise:
		return "cACompromise"
	case ReasonAffiliationChanged:
		return "affiliationChanged"
	case ReasonSuperseded:
		return "superseded"
	case ReasonCessationOfOperation:
		return "cessationOfOperation"
	case ReasonCertificateHold:
		return "certificateHold"
	case ReasonRemoveFromCRL:
		return "removeFromCRL"
	case ReasonPrivilegeWithdrawn:
		return "privilegeWithdrawn"
	case ReasonAACompromise:
		return "aACompromise"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// CRLSetEligible reports whether a revocation with this reason code is
// eligible for inclusion in Google's CRLSet: no reason code, Unspecified,
// KeyCompromise, CACompromise, or AACompromise (§7.1).
func (r Reason) CRLSetEligible() bool {
	switch r {
	case ReasonAbsent, ReasonUnspecified, ReasonKeyCompromise, ReasonCACompromise, ReasonAACompromise:
		return true
	}
	return false
}

// Entry is one revoked certificate in a CRL.
type Entry struct {
	// Serial is the serial number's big-endian magnitude with no leading
	// zeros — exactly what big.Int.Bytes produces, and the key every
	// consumer (CRL lookup, revdb, CRLSet, Bloom filters) indexes by.
	// Entries produced by Parse alias the CRL's Raw buffer; do not
	// mutate. The handful of RFC-violating CRLs carrying negative
	// serials collapse to the magnitude here, which is the value the
	// legacy big.Int path exposed to all consumers anyway.
	Serial    []byte
	RevokedAt time.Time
	Reason    Reason
}

// SerialBig returns the serial as a freshly allocated big.Int, for callers
// on the big.Int API (certificate records, OCSP).
func (e Entry) SerialBig() *big.Int { return new(big.Int).SetBytes(e.Serial) }

// CRL is a parsed certificate revocation list.
type CRL struct {
	Raw       []byte
	RawTBS    []byte
	RawIssuer []byte

	Issuer     x509x.Name
	ThisUpdate time.Time
	NextUpdate time.Time // zero when absent
	Number     *big.Int  // nil when absent
	// Entries holds the revoked certificates in CRL order. Treat as
	// read-only; serials alias Raw.
	Entries []Entry

	Signature          []byte
	SignatureAlgorithm der.OID

	// scanned is set by the first LookupSerial, which scans Entries;
	// indexOnce guards the bySerial build the second one triggers:
	// parsed CRLs are shared across snapshots (the crawler's parse
	// cache) and goroutines.
	scanned   atomic.Bool
	indexOnce sync.Once
	bySerial  map[string]int
}

// NumEntries returns the number of revoked entries.
func (c *CRL) NumEntries() int { return len(c.Entries) }

// VisitEntries calls fn for each entry in CRL order until fn returns
// false — iterator-style access without exposing the backing slice.
func (c *CRL) VisitEntries(fn func(Entry) bool) {
	for _, e := range c.Entries {
		if !fn(e) {
			return
		}
	}
}

// Lookup returns the entry for serial, if present.
func (c *CRL) Lookup(serial *big.Int) (Entry, bool) {
	return c.LookupSerial(serial.Bytes())
}

// LookupSerial is Lookup keyed by the compact big-endian serial magnitude
// (what Entry.Serial holds). The first lookup on a CRL scans Entries: a
// freshly fetched CRL that answers one check and is dropped never pays
// for an index. The second builds a serial-keyed map that every later
// lookup reads without allocating, which is what keeps a warm
// browser-cache membership check off the allocator entirely.
func (c *CRL) LookupSerial(serial []byte) (Entry, bool) {
	if !c.scanned.Load() && c.scanned.CompareAndSwap(false, true) {
		for _, e := range c.Entries {
			if bytes.Equal(e.Serial, serial) {
				return e, true
			}
		}
		return Entry{}, false
	}
	c.indexOnce.Do(func() {
		c.bySerial = make(map[string]int, len(c.Entries))
		for i, e := range c.Entries {
			c.bySerial[string(e.Serial)] = i
		}
	})
	i, ok := c.bySerial[string(serial)]
	if !ok {
		return Entry{}, false
	}
	return c.Entries[i], true
}

// Contains reports whether serial is revoked by this CRL.
func (c *CRL) Contains(serial *big.Int) bool {
	_, ok := c.Lookup(serial)
	return ok
}

// ContainsSerial is Contains keyed by the compact serial magnitude.
func (c *CRL) ContainsSerial(serial []byte) bool {
	_, ok := c.LookupSerial(serial)
	return ok
}

// CurrentAt reports whether the CRL is within its validity window at t.
// A CRL with no nextUpdate is treated as never expiring.
func (c *CRL) CurrentAt(t time.Time) bool {
	if t.Before(c.ThisUpdate) {
		return false
	}
	return c.NextUpdate.IsZero() || !t.After(c.NextUpdate)
}

// VerifySignature checks the CRL signature against the issuer certificate.
func (c *CRL) VerifySignature(issuer *x509x.Certificate) error {
	if !x509x.NamesEqual(c.RawIssuer, issuer.RawSubject) {
		return fmt.Errorf("crl: issuer %q does not match certificate subject %q", c.Issuer, issuer.Subject)
	}
	return x509x.VerifyDigest(issuer.PublicKey, c.RawTBS, c.Signature)
}

// --- Encoding ---

// Template describes a CRL to be created.
type Template struct {
	ThisUpdate time.Time
	NextUpdate time.Time // zero to omit
	Number     *big.Int  // nil to omit the CRLNumber extension
	Entries    []Entry
}

// Create builds and signs a CRL issued by the given CA certificate.
func Create(tmpl *Template, issuer *x509x.Certificate, key *ecdsa.PrivateKey) ([]byte, error) {
	var encoded []byte
	if len(tmpl.Entries) > 0 {
		b := der.GetBuilder()
		defer der.PutBuilder(b)
		for _, e := range tmpl.Entries {
			if err := appendEntry(b, e); err != nil {
				return nil, err
			}
		}
		encoded = b.Bytes()
	}
	return CreateEncoded(tmpl, encoded, issuer, key)
}

// CreateEncoded is Create for callers that maintain the concatenated DER
// encodings of the revoked entries themselves (see EncodeCache): tmpl
// supplies everything except the entries, encoded supplies the entry
// bytes (empty omits the revokedCertificates field), and tmpl.Entries is
// ignored. The output is byte-identical to Create with the equivalent
// entry slice.
func CreateEncoded(tmpl *Template, encoded []byte, issuer *x509x.Certificate, key *ecdsa.PrivateKey) ([]byte, error) {
	if !tmpl.NextUpdate.IsZero() && tmpl.NextUpdate.Before(tmpl.ThisUpdate) {
		return nil, fmt.Errorf("crl: nextUpdate %v precedes thisUpdate %v", tmpl.NextUpdate, tmpl.ThisUpdate)
	}
	tbsParts := [][]byte{
		der.Int(1), // version v2
		algorithmIdentifier(),
		issuer.RawSubject,
		der.Time(tmpl.ThisUpdate),
	}
	if !tmpl.NextUpdate.IsZero() {
		tbsParts = append(tbsParts, der.Time(tmpl.NextUpdate))
	}
	if len(encoded) > 0 {
		tbsParts = append(tbsParts, der.Sequence(encoded))
	}
	if tmpl.Number != nil {
		numExt := der.Sequence(
			der.EncodeOID(x509x.OIDExtCRLNumber),
			der.OctetString(der.Integer(tmpl.Number)),
		)
		tbsParts = append(tbsParts, der.Explicit(0, der.Sequence(numExt)))
	}
	tbs := der.Sequence(tbsParts...)
	sig, err := x509x.SignDigest(key, tbs)
	if err != nil {
		return nil, fmt.Errorf("crl: signing: %v", err)
	}
	return der.Sequence(tbs, algorithmIdentifier(), der.BitString(sig)), nil
}

func algorithmIdentifier() []byte {
	return der.Sequence(der.EncodeOID(x509x.OIDSignatureECDSAWithSHA256))
}

var errBadSerial = errors.New("crl: entry needs a positive serial")

// appendEntry appends one revoked-certificate SEQUENCE to b, byte-
// identical to the historical der.Sequence-based encoder.
func appendEntry(b *der.Builder, e Entry) error {
	mag := e.Serial
	for len(mag) > 0 && mag[0] == 0 {
		mag = mag[1:]
	}
	if len(mag) == 0 {
		return errBadSerial
	}
	b.BeginSequence()
	b.UnsignedInteger(mag)
	b.Time(e.RevokedAt)
	if e.Reason != ReasonAbsent {
		if ri := int(e.Reason); ri >= 0 && ri < len(reasonExtDER) {
			b.Raw(reasonExtDER[ri])
		} else {
			b.Raw(genericReasonExt(e.Reason))
		}
	}
	b.End()
	return nil
}

// genericReasonExt encodes the crlEntryExtensions wrapper holding one
// reasonCode extension.
func genericReasonExt(r Reason) []byte {
	return der.Sequence(der.Sequence(
		der.EncodeOID(x509x.OIDExtCRLReason),
		der.OctetString(der.Enumerated(int64(r))),
	))
}

// reasonExtDER precomputes the extension wrapper for the standard reason
// codes, so encoding an entry allocates nothing.
var reasonExtDER = func() [11][]byte {
	var out [11][]byte
	for r := range out {
		out[r] = genericReasonExt(Reason(r))
	}
	return out
}()

// EncodeCache incrementally maintains the concatenated DER encodings of an
// append-only entry list, so a CA re-signing an N-entry shard daily only
// encodes the entries added since the previous signing.
//
// Extend must always be called with a list that extends (by append only)
// the previous call's list; when the prefix may have changed, Reset first.
// Returned slices stay valid and immutable across later Extend calls —
// growth appends beyond previously returned lengths and Reset drops the
// buffer rather than truncating it — so callers may hand them to signers
// without holding any lock.
type EncodeCache struct {
	count int
	b     der.Builder
}

// Reset empties the cache. The buffer is released, not reused: slices
// returned by earlier Extend calls remain valid.
func (ec *EncodeCache) Reset() { *ec = EncodeCache{} }

// Count returns the number of entries currently encoded.
func (ec *EncodeCache) Count() int { return ec.count }

// Extend appends encodings for entries[Count():] and returns the
// concatenated DER of all entries, suitable for CreateEncoded.
func (ec *EncodeCache) Extend(entries []Entry) ([]byte, error) {
	if ec.count > len(entries) {
		ec.Reset()
	}
	for _, e := range entries[ec.count:] {
		if err := appendEntry(&ec.b, e); err != nil {
			// A partial append would corrupt the prefix invariant.
			ec.Reset()
			return nil, err
		}
	}
	ec.count = len(entries)
	return ec.b.Bytes(), nil
}

// EntrySize returns the exact number of DER bytes the given entry occupies
// in a CRL, computed arithmetically (no encoding). CA serial-number policy
// (some CAs use serials of up to 49 decimal digits) drives per-entry size,
// which is why Figure 5's linear fit shows variance between CAs; the paper
// measures ~38 bytes per entry on average.
func EntrySize(e Entry) int {
	mag := e.Serial
	for len(mag) > 0 && mag[0] == 0 {
		mag = mag[1:]
	}
	if len(mag) == 0 {
		return 0 // invalid entry, mirroring the encoder's rejection
	}
	intLen := len(mag)
	if mag[0]&0x80 != 0 {
		intLen++ // sign pad
	}
	content := tlvSize(intLen) + timeSize(e.RevokedAt)
	if e.Reason != ReasonAbsent {
		if ri := int(e.Reason); ri >= 0 && ri < len(reasonExtDER) {
			content += len(reasonExtDER[ri])
		} else {
			content += len(genericReasonExt(e.Reason))
		}
	}
	return tlvSize(content)
}

// tlvSize returns the encoded size of a TLV with the given content length.
func tlvSize(contentLen int) int {
	switch {
	case contentLen < 0x80:
		return 2 + contentLen
	case contentLen < 0x100:
		return 3 + contentLen
	case contentLen < 0x10000:
		return 4 + contentLen
	case contentLen < 0x1000000:
		return 5 + contentLen
	default:
		return 6 + contentLen
	}
}

// timeSize returns the encoded size of der.Time(t).
func timeSize(t time.Time) int {
	y := t.UTC().Year()
	switch {
	case y >= 1950 && y < 2050:
		return 2 + 13 // UTCTime
	case y >= 0 && y <= 9999:
		return 2 + 15 // GeneralizedTime
	default:
		// Out-of-range years format to a different width; measure.
		return len(der.Time(t))
	}
}

// --- Decoding ---

// rawReasonOID is the full DER encoding of the reasonCode extension OID;
// entry parsing byte-compares against it (DER OID encodings are unique)
// instead of decoding each extension's OID into a fresh slice.
var rawReasonOID = der.EncodeOID(x509x.OIDExtCRLReason)

// Parse decodes a DER CRL. Unknown entry or list extensions are ignored
// unless critical. Entry serials alias raw; parsing allocates O(1) per
// entry (a single slice for the whole list).
func Parse(raw []byte) (*CRL, error) {
	c := &CRL{}
	revoked, has, err := parseShell(raw, c)
	if err != nil {
		return nil, err
	}
	if !has {
		return c, nil
	}
	n, err := revoked.NumChildren()
	if err != nil {
		return nil, err
	}
	c.Entries = make([]Entry, 0, n)
	cur, _ := revoked.SequenceCursor()
	for cur.More() {
		ev, err := cur.Next()
		if err != nil {
			return nil, err
		}
		e, err := parseEntry(ev)
		if err != nil {
			return nil, err
		}
		c.Entries = append(c.Entries, e)
	}
	return c, nil
}

// parseShell validates and decodes everything except the revoked-entry
// list, which it returns as an unparsed Value for Parse to walk.
func parseShell(raw []byte, c *CRL) (revoked der.Value, has bool, err error) {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return der.Value{}, false, fmt.Errorf("crl: %v", err)
	}
	if len(rest) != 0 {
		return der.Value{}, false, errors.New("crl: trailing bytes")
	}
	outer, err := top.Sequence()
	if err != nil || len(outer) != 3 {
		return der.Value{}, false, fmt.Errorf("crl: CertificateList must have 3 fields (%v)", err)
	}
	c.Raw, c.RawTBS = top.Full, outer[0].Full

	if c.SignatureAlgorithm, err = parseAlgID(outer[1]); err != nil {
		return der.Value{}, false, err
	}
	if !c.SignatureAlgorithm.Equal(x509x.OIDSignatureECDSAWithSHA256) {
		return der.Value{}, false, fmt.Errorf("crl: unsupported signature algorithm %s", c.SignatureAlgorithm)
	}
	sig, unused, err := outer[2].BitString()
	if err != nil || unused != 0 {
		return der.Value{}, false, fmt.Errorf("crl: signature bits: %v", err)
	}
	c.Signature = sig

	fields, err := outer[0].Sequence()
	if err != nil {
		return der.Value{}, false, fmt.Errorf("crl: tbsCertList: %v", err)
	}
	i := 0
	// Optional version.
	if i < len(fields) && fields[i].Tag == der.TagInteger && fields[i].Class == der.ClassUniversal {
		ver, err := fields[i].Int64()
		if err != nil || ver != 1 {
			return der.Value{}, false, fmt.Errorf("crl: unsupported version %d", ver+1)
		}
		i++
	}
	if i >= len(fields) {
		return der.Value{}, false, errors.New("crl: missing signature algorithm")
	}
	inner, err := parseAlgID(fields[i])
	if err != nil {
		return der.Value{}, false, err
	}
	if !inner.Equal(c.SignatureAlgorithm) {
		return der.Value{}, false, errors.New("crl: inner/outer signature algorithm mismatch")
	}
	i++
	if i >= len(fields) {
		return der.Value{}, false, errors.New("crl: missing issuer")
	}
	c.RawIssuer = fields[i].Full
	if c.Issuer, err = x509x.ParseName(fields[i]); err != nil {
		return der.Value{}, false, err
	}
	i++
	if i >= len(fields) {
		return der.Value{}, false, errors.New("crl: missing thisUpdate")
	}
	if c.ThisUpdate, err = fields[i].Time(); err != nil {
		return der.Value{}, false, err
	}
	i++
	// Optional nextUpdate.
	if i < len(fields) && fields[i].Class == der.ClassUniversal &&
		(fields[i].Tag == der.TagUTCTime || fields[i].Tag == der.TagGeneralizedTime) {
		if c.NextUpdate, err = fields[i].Time(); err != nil {
			return der.Value{}, false, err
		}
		i++
	}
	// Optional revokedCertificates, left to the caller.
	if i < len(fields) && fields[i].Class == der.ClassUniversal && fields[i].Tag == der.TagSequence {
		revoked, has = fields[i], true
		i++
	}
	// Optional [0] crlExtensions.
	if i < len(fields) && fields[i].IsContext(0) {
		if err := c.parseListExtensions(fields[i]); err != nil {
			return der.Value{}, false, err
		}
	}
	return revoked, has, nil
}

func parseAlgID(v der.Value) (der.OID, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 1 {
		return nil, fmt.Errorf("crl: AlgorithmIdentifier: %v", err)
	}
	return fields[0].OID()
}

// parseEntry decodes one revoked-certificate SEQUENCE — zero
// allocations for well-formed entries. The shape appendEntry emits takes
// the one-pass path; every other entry takes the cursor.
func parseEntry(v der.Value) (Entry, error) {
	if e, ok := parseEntryCanonical(v); ok {
		return e, nil
	}
	return parseEntryCursor(v)
}

// reasonExtPrefix is reasonExtDER[r] without its last byte, the
// ENUMERATED's one content byte: the same for every one-byte code.
var reasonExtPrefix = reasonExtDER[0][:len(reasonExtDER[0])-1]

// parseEntryCanonical decodes, in one pass over v's content, the entry
// shape every CA here emits: a short-form INTEGER serial that is positive
// and minimal, a 13-byte UTCTime the fast time decoder reads, then either
// nothing or exactly the encoder's reasonCode extension with a one-byte
// code below 0x80. ok is false on any other byte, leaving the entry to
// parseEntryCursor; on ok the Entry is the one parseEntryCursor returns,
// serial aliasing the same bytes.
func parseEntryCanonical(v der.Value) (Entry, bool) {
	if v.Class != der.ClassUniversal || v.Tag != der.TagSequence || !v.Constructed {
		return Entry{}, false
	}
	c := v.Content
	if len(c) < 2 || c[0] != der.TagInteger || c[1] == 0 || c[1] >= 0x80 || len(c) < 2+int(c[1]) {
		return Entry{}, false
	}
	mag := c[2 : 2+int(c[1])]
	c = c[2+len(mag):]
	if mag[0]&0x80 != 0 {
		return Entry{}, false // negative
	}
	if mag[0] == 0 {
		if len(mag) == 1 || mag[1]&0x80 == 0 {
			return Entry{}, false // zero, or a non-minimal pad
		}
		mag = mag[1:]
	}
	if len(c) < 15 || c[0] != der.TagUTCTime || c[1] != 13 {
		return Entry{}, false
	}
	at, ok := der.FastUTCTime(c[2:15])
	if !ok {
		return Entry{}, false
	}
	c = c[15:]
	e := Entry{Serial: mag, RevokedAt: at, Reason: ReasonAbsent}
	switch {
	case len(c) == 0:
	case len(c) == len(reasonExtPrefix)+1 && c[len(c)-1] < 0x80 && bytes.HasPrefix(c, reasonExtPrefix):
		e.Reason = Reason(c[len(c)-1])
	default:
		return Entry{}, false
	}
	return e, true
}

// parseEntryCursor decodes any well-formed revoked-certificate SEQUENCE
// field by field via the cursor.
func parseEntryCursor(v der.Value) (Entry, error) {
	cur, err := v.SequenceCursor()
	if err != nil {
		return Entry{}, fmt.Errorf("crl: revoked entry: %v", err)
	}
	serialV, err := cur.Next()
	if err != nil {
		return Entry{}, fmt.Errorf("crl: revoked entry: %v", err)
	}
	mag, neg, err := serialV.IntegerBytes()
	if err != nil {
		return Entry{}, err
	}
	if neg {
		// RFC-violating negative serial: fall back through big.Int for
		// the magnitude every consumer keys on.
		i, err := serialV.Integer()
		if err != nil {
			return Entry{}, err
		}
		mag = i.Bytes()
	}
	e := Entry{Serial: mag, Reason: ReasonAbsent}
	if !cur.More() {
		return Entry{}, errors.New("crl: revoked entry: missing revocation time")
	}
	timeV, err := cur.Next()
	if err != nil {
		return Entry{}, fmt.Errorf("crl: revoked entry: %v", err)
	}
	if e.RevokedAt, err = timeV.Time(); err != nil {
		return Entry{}, err
	}
	if cur.More() {
		extsV, err := cur.Next()
		if err != nil {
			return Entry{}, fmt.Errorf("crl: revoked entry: %v", err)
		}
		ecur, err := extsV.SequenceCursor()
		if err != nil {
			return Entry{}, err
		}
		for ecur.More() {
			ev, err := ecur.Next()
			if err != nil {
				return Entry{}, err
			}
			if err := parseEntryExtension(ev, &e); err != nil {
				return Entry{}, err
			}
		}
		// Fields beyond the extensions are ignored but must still be
		// well-formed TLVs, as when the whole entry was ParseAll'd.
		for cur.More() {
			if _, err := cur.Next(); err != nil {
				return Entry{}, err
			}
		}
	}
	return e, nil
}

// parseEntryExtension handles one entry extension: the reasonCode fast
// path byte-compares the OID encoding; anything else is validated and
// ignored unless critical.
func parseEntryExtension(v der.Value, e *Entry) error {
	cur, err := v.SequenceCursor()
	if err != nil {
		return fmt.Errorf("crl: extension: %v", err)
	}
	var f [3]der.Value
	n := 0
	for cur.More() {
		if n == len(f) {
			return errors.New("crl: extension: too many fields")
		}
		if f[n], err = cur.Next(); err != nil {
			return fmt.Errorf("crl: extension: %v", err)
		}
		n++
	}
	if n < 2 {
		return errors.New("crl: extension: too few fields")
	}
	critical := false
	vi := 1
	if n == 3 {
		if critical, err = f[1].Bool(); err != nil {
			return err
		}
		vi = 2
	}
	value, err := f[vi].OctetString()
	if err != nil {
		return err
	}
	if bytes.Equal(f[0].Full, rawReasonOID) {
		rv, rest, err := der.Parse(value)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("crl: reasonCode: %v", err)
		}
		code, err := rv.Enumerated()
		if err != nil {
			return err
		}
		e.Reason = Reason(code)
		return nil
	}
	// Unknown extension: the OID must still be well-formed (the
	// materializing parser always decoded it), and critical ones are
	// fatal.
	oid, err := f[0].OID()
	if err != nil {
		return err
	}
	if critical {
		return fmt.Errorf("crl: unhandled critical entry extension %s", oid)
	}
	return nil
}

func (c *CRL) parseListExtensions(wrapper der.Value) error {
	kids, err := wrapper.Children()
	if err != nil || len(kids) != 1 {
		return errors.New("crl: extensions wrapper")
	}
	exts, err := kids[0].Sequence()
	if err != nil {
		return err
	}
	for _, ext := range exts {
		oid, critical, value, err := parseExtension(ext)
		if err != nil {
			return err
		}
		switch {
		case oid.Equal(x509x.OIDExtCRLNumber):
			nv, rest, err := der.Parse(value)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("crl: CRLNumber: %v", err)
			}
			if c.Number, err = nv.Integer(); err != nil {
				return err
			}
		case oid.Equal(x509x.OIDExtAuthorityKeyID):
			// Recognized but not needed: byte-matching on names is used.
		default:
			if critical {
				return fmt.Errorf("crl: unhandled critical extension %s", oid)
			}
		}
	}
	return nil
}

func parseExtension(v der.Value) (oid der.OID, critical bool, value []byte, err error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 2 || len(fields) > 3 {
		return nil, false, nil, fmt.Errorf("crl: extension: %v", err)
	}
	if oid, err = fields[0].OID(); err != nil {
		return nil, false, nil, err
	}
	vi := 1
	if len(fields) == 3 {
		if critical, err = fields[1].Bool(); err != nil {
			return nil, false, nil, err
		}
		vi = 2
	}
	if value, err = fields[vi].OctetString(); err != nil {
		return nil, false, nil, err
	}
	return oid, critical, value, nil
}
