package x509x

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
	"time"

	"repro/internal/der"
	"repro/internal/ribbon"
)

// KeyUsage is the X.509 key-usage bitmask (RFC 5280 §4.2.1.3). Bit i of
// the named-bit list corresponds to the constant with value 1<<i.
type KeyUsage int

// Key usage bits.
const (
	KeyUsageDigitalSignature KeyUsage = 1 << iota
	KeyUsageContentCommitment
	KeyUsageKeyEncipherment
	KeyUsageDataEncipherment
	KeyUsageKeyAgreement
	KeyUsageCertSign
	KeyUsageCRLSign
)

// Certificate is a parsed X.509 v3 certificate.
type Certificate struct {
	// Raw is the complete DER encoding; RawTBS is the to-be-signed
	// portion over which Signature was computed.
	Raw    []byte
	RawTBS []byte
	// RawIssuer and RawSubject are the DER name encodings used for
	// byte-equality chain building.
	RawIssuer  []byte
	RawSubject []byte
	// RawSPKI is the SubjectPublicKeyInfo encoding (hashed for CRLSet
	// parent identification).
	RawSPKI []byte

	SerialNumber *big.Int
	Issuer       Name
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time
	PublicKey    *ecdsa.PublicKey

	SignatureAlgorithm der.OID
	Signature          []byte

	// Extensions.
	IsCA                  bool
	MaxPathLen            int // -1 when absent
	KeyUsage              KeyUsage
	ExtKeyUsage           []der.OID
	DNSNames              []string
	CRLDistributionPoints []string
	OCSPServers           []string
	CAIssuersURLs         []string
	PolicyOIDs            []der.OID
	SubjectKeyID          []byte
	AuthorityKeyID        []byte

	// PermittedDNSDomains / ExcludedDNSDomains carry the Name
	// Constraints extension — the delegation mechanism §2.1 notes is
	// "rarely used and few clients support it".
	PermittedDNSDomains []string
	ExcludedDNSDomains  []string

	// serial is SerialBytes where it sits in Raw and ev is IsEV, both set
	// by Parse; hashes is filled by the first call that needs one. All
	// are derived from the exported fields above, which must not change
	// once they were read.
	serial []byte
	ev     evFlag
	hashes atomic.Pointer[certHashes]
}

// evFlag is IsEV as Parse settled it; evUnset for a Certificate that
// Parse did not build.
type evFlag uint8

const (
	evUnset evFlag = iota
	evNo
	evYes
)

// certHashes is the part of a certificate's revocation identity that
// costs a SHA-256 to derive. A revocation check asks the issuer for all
// of it on every verdict and most certificates are never an issuer, so
// it hangs off the Certificate by a pointer filled on first use. digest
// is the certificate's own half: the level-1 digest of its filter key
// under the first issuer it was checked against (KeyDigest).
type certHashes struct {
	spki, name, key [32]byte
	digest          atomic.Pointer[keyDigest]
}

// keyDigest is KeyDigest under the issuer whose SPKIHash is parent.
type keyDigest struct {
	parent [32]byte
	sum    ribbon.Digest
}

func (c *Certificate) identity() *certHashes {
	if h := c.hashes.Load(); h != nil {
		return h
	}
	h := &certHashes{spki: sha256.Sum256(c.RawSPKI), name: sha256.Sum256(c.RawSubject)}
	if pub := c.PublicKey; pub != nil {
		// The uncompressed point, as elliptic.Marshal lays it out.
		n := (pub.Curve.Params().BitSize + 7) / 8
		point := make([]byte, 1+2*n)
		point[0] = 4
		pub.X.FillBytes(point[1 : 1+n])
		pub.Y.FillBytes(point[1+n:])
		h.key = sha256.Sum256(point)
	}
	// Racing first readers derive equal values; whichever lands is kept.
	c.hashes.CompareAndSwap(nil, h)
	return c.hashes.Load()
}

// SPKIHash returns SPKIHash(c.RawSPKI), the "parent" CRLSets, Bloom keys
// and cascade shards know an issuer by, hashed once per certificate.
func (c *Certificate) SPKIHash() [32]byte { return c.identity().spki }

// NameHash returns the SHA-256 of RawSubject: the issuerNameHash of an
// OCSP CertID naming a certificate c issued. Hashed once per certificate.
func (c *Certificate) NameHash() [32]byte { return c.identity().name }

// KeyHash returns the SHA-256 of the public key's uncompressed point: the
// issuerKeyHash of an OCSP CertID naming a certificate c issued. Hashed
// once per certificate; zero when c has no PublicKey.
func (c *Certificate) KeyHash() [32]byte { return c.identity().key }

// SerialBytes returns the serial number's big-endian magnitude without
// leading zeros (SerialNumber.Bytes(); empty for zero), the form every
// revocation key ends in. For a parsed certificate it is a subslice of
// Raw and costs nothing; callers must not modify it. A Certificate that
// Parse did not build computes it on each call.
func (c *Certificate) SerialBytes() []byte {
	if c.serial != nil {
		return c.serial
	}
	return c.SerialNumber.Bytes()
}

// KeyDigest returns ribbon.Sum(0, key) for c's revocation-filter key
// under issuer, key being issuer.SPKIHash() ‖ c.SerialBytes() (the
// browser.BloomKey and cascade.AppendKey layout): the digest a cascade's
// level 1 is probed with. The digest under the first issuer asked for is
// memoised with c's identity and read back without hashing: atomic loads
// and a comparison of the issuer's SPKIHash. A call under any other
// issuer hashes again and keeps nothing. Zero allocations once memoised.
func (c *Certificate) KeyDigest(issuer *Certificate) ribbon.Digest {
	parent := issuer.SPKIHash()
	h := c.identity()
	if m := h.digest.Load(); m != nil && m.parent == parent {
		return m.sum
	}
	var buf [64]byte
	sum := ribbon.Sum(0, append(append(buf[:0], parent[:]...), c.SerialBytes()...))
	// Racing first callers derive equal values; whichever lands is kept.
	h.digest.CompareAndSwap(nil, &keyDigest{parent: parent, sum: sum})
	return sum
}

// IsEV reports whether the certificate asserts one of the EV policy OIDs.
// Parse settles it once; a Certificate that Parse did not build scans
// PolicyOIDs on each call.
func (c *Certificate) IsEV() bool {
	if c.ev != evUnset {
		return c.ev == evYes
	}
	return hasEVPolicy(c.PolicyOIDs)
}

func hasEVPolicy(policies []der.OID) bool {
	for _, p := range policies {
		for _, ev := range EVPolicyOIDs {
			if p.Equal(ev) {
				return true
			}
		}
	}
	return false
}

// FreshAt reports whether t falls inside the certificate's validity
// window (the paper's "fresh" period, §3.3).
func (c *Certificate) FreshAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// CheckSignatureFrom verifies that parent's key signed c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if !NamesEqual(c.RawIssuer, parent.RawSubject) {
		return fmt.Errorf("x509x: issuer %q does not match parent subject %q", c.Issuer, parent.Subject)
	}
	return VerifyDigest(parent.PublicKey, c.RawTBS, c.Signature)
}

// Template describes a certificate to be created.
type Template struct {
	SerialNumber *big.Int
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time

	IsCA        bool
	MaxPathLen  int // -1 to omit pathLenConstraint
	KeyUsage    KeyUsage
	ExtKeyUsage []der.OID

	DNSNames              []string
	CRLDistributionPoints []string
	OCSPServers           []string
	CAIssuersURLs         []string
	PolicyOIDs            []der.OID

	// PermittedDNSDomains / ExcludedDNSDomains emit a critical Name
	// Constraints extension on CA certificates.
	PermittedDNSDomains []string
	ExcludedDNSDomains  []string

	// IncludeSubjectKeyID/IncludeAuthorityKeyID control emission of the
	// key-identifier extensions (on by default in NewTemplate).
	IncludeSubjectKeyID   bool
	IncludeAuthorityKeyID bool
}

// NewTemplate returns a template with the study's defaults: key-identifier
// extensions enabled and no path-length constraint.
func NewTemplate(serial *big.Int, subject Name, notBefore, notAfter time.Time) *Template {
	return &Template{
		SerialNumber:          serial,
		Subject:               subject,
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		MaxPathLen:            -1,
		IncludeSubjectKeyID:   true,
		IncludeAuthorityKeyID: true,
	}
}

// Create builds and signs a certificate for pub described by tmpl.
// For a self-signed certificate, pass parent == nil; issuerKey must then be
// the private key matching pub. It returns the DER encoding.
func Create(tmpl *Template, parent *Certificate, issuerKey *ecdsa.PrivateKey, pub *ecdsa.PublicKey) ([]byte, error) {
	if tmpl.SerialNumber == nil || tmpl.SerialNumber.Sign() <= 0 {
		return nil, errors.New("x509x: template needs a positive serial number")
	}
	if tmpl.NotAfter.Before(tmpl.NotBefore) {
		return nil, fmt.Errorf("x509x: notAfter %v precedes notBefore %v", tmpl.NotAfter, tmpl.NotBefore)
	}
	var issuerName []byte
	var authorityKeyID []byte
	if parent != nil {
		issuerName = parent.RawSubject
		authorityKeyID = parent.SubjectKeyID
	} else {
		issuerName = tmpl.Subject.Encode()
		authorityKeyID = KeyID(pub)
	}

	spki := MarshalPKIX(pub)
	exts, err := buildExtensions(tmpl, pub, authorityKeyID)
	if err != nil {
		return nil, err
	}

	tbs := der.Sequence(
		der.Explicit(0, der.Int(2)), // version v3
		der.Integer(tmpl.SerialNumber),
		algorithmIdentifierECDSASHA256(),
		issuerName,
		der.Sequence(der.Time(tmpl.NotBefore), der.Time(tmpl.NotAfter)),
		tmpl.Subject.Encode(),
		spki,
		der.Explicit(3, der.Sequence(exts...)),
	)
	sig, err := SignDigest(issuerKey, tbs)
	if err != nil {
		return nil, fmt.Errorf("x509x: signing: %v", err)
	}
	return der.Sequence(tbs, algorithmIdentifierECDSASHA256(), der.BitString(sig)), nil
}

func buildExtensions(tmpl *Template, pub *ecdsa.PublicKey, authorityKeyID []byte) ([][]byte, error) {
	var exts [][]byte
	ext := func(oid der.OID, critical bool, value []byte) {
		parts := [][]byte{der.EncodeOID(oid)}
		if critical {
			parts = append(parts, der.Bool(true))
		}
		parts = append(parts, der.OctetString(value))
		exts = append(exts, der.Sequence(parts...))
	}

	// Basic constraints: always present, critical (RFC 5280 requires it
	// critical on CA certificates; emitting it on leaves too matches
	// common CA practice).
	var bcParts [][]byte
	if tmpl.IsCA {
		bcParts = append(bcParts, der.Bool(true))
		if tmpl.MaxPathLen >= 0 {
			bcParts = append(bcParts, der.Int(int64(tmpl.MaxPathLen)))
		}
	}
	ext(OIDExtBasicConstraints, true, der.Sequence(bcParts...))

	if tmpl.KeyUsage != 0 {
		bits := make([]bool, 9)
		for i := range bits {
			bits[i] = tmpl.KeyUsage&(1<<i) != 0
		}
		ext(OIDExtKeyUsage, true, der.NamedBitString(bits))
	}
	if len(tmpl.ExtKeyUsage) > 0 {
		var oids [][]byte
		for _, o := range tmpl.ExtKeyUsage {
			oids = append(oids, der.EncodeOID(o))
		}
		ext(OIDExtExtendedKeyUsage, false, der.Sequence(oids...))
	}
	if len(tmpl.DNSNames) > 0 {
		var names [][]byte
		for _, d := range tmpl.DNSNames {
			names = append(names, der.Implicit(2, false, []byte(d))) // dNSName
		}
		ext(OIDExtSubjectAltName, false, der.Sequence(names...))
	}
	if len(tmpl.CRLDistributionPoints) > 0 {
		var dps [][]byte
		for _, u := range tmpl.CRLDistributionPoints {
			uri := der.Implicit(6, false, []byte(u)) // uniformResourceIdentifier
			fullName := der.Implicit(0, true, uri)   // GeneralNames
			dpName := der.Implicit(0, true, fullName)
			dps = append(dps, der.Sequence(dpName))
		}
		ext(OIDExtCRLDistribution, false, der.Sequence(dps...))
	}
	if len(tmpl.OCSPServers) > 0 || len(tmpl.CAIssuersURLs) > 0 {
		var ads [][]byte
		for _, u := range tmpl.OCSPServers {
			ads = append(ads, der.Sequence(der.EncodeOID(OIDAccessOCSP), der.Implicit(6, false, []byte(u))))
		}
		for _, u := range tmpl.CAIssuersURLs {
			ads = append(ads, der.Sequence(der.EncodeOID(OIDAccessCAIssuers), der.Implicit(6, false, []byte(u))))
		}
		ext(OIDExtAuthorityInfoAccess, false, der.Sequence(ads...))
	}
	if len(tmpl.PolicyOIDs) > 0 {
		var pis [][]byte
		for _, p := range tmpl.PolicyOIDs {
			pis = append(pis, der.Sequence(der.EncodeOID(p)))
		}
		ext(OIDExtCertPolicies, false, der.Sequence(pis...))
	}
	if len(tmpl.PermittedDNSDomains) > 0 || len(tmpl.ExcludedDNSDomains) > 0 {
		// GeneralSubtrees is SEQUENCE OF GeneralSubtree; the [0]/[1]
		// IMPLICIT tag replaces the SEQUENCE tag, so the context value
		// carries the concatenated subtree encodings directly.
		subtreeContent := func(domains []string) []byte {
			var content []byte
			for _, d := range domains {
				content = append(content, der.Sequence(der.Implicit(2, false, []byte(d)))...)
			}
			return content
		}
		var ncParts [][]byte
		if len(tmpl.PermittedDNSDomains) > 0 {
			ncParts = append(ncParts, der.Implicit(0, true, subtreeContent(tmpl.PermittedDNSDomains)))
		}
		if len(tmpl.ExcludedDNSDomains) > 0 {
			ncParts = append(ncParts, der.Implicit(1, true, subtreeContent(tmpl.ExcludedDNSDomains)))
		}
		ext(OIDExtNameConstraints, true, der.Sequence(ncParts...))
	}
	if tmpl.IncludeSubjectKeyID {
		ext(OIDExtSubjectKeyID, false, der.OctetString(KeyID(pub)))
	}
	if tmpl.IncludeAuthorityKeyID && len(authorityKeyID) > 0 {
		ext(OIDExtAuthorityKeyID, false, der.Sequence(der.Implicit(0, false, authorityKeyID)))
	}
	return exts, nil
}

// Parse decodes a DER certificate. It is strict about structure but
// tolerant of unknown non-critical extensions; unknown critical extensions
// are rejected, as RFC 5280 requires.
func Parse(raw []byte) (*Certificate, error) {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("x509x: certificate: %v", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("x509x: trailing bytes after certificate")
	}
	outer, err := top.Sequence()
	if err != nil || len(outer) != 3 {
		return nil, fmt.Errorf("x509x: certificate must have 3 fields, got %d (%v)", len(outer), err)
	}
	c := &Certificate{Raw: top.Full, RawTBS: outer[0].Full, MaxPathLen: -1}

	c.SignatureAlgorithm, err = parseAlgorithmIdentifier(outer[1])
	if err != nil {
		return nil, err
	}
	if !c.SignatureAlgorithm.Equal(OIDSignatureECDSAWithSHA256) {
		return nil, fmt.Errorf("x509x: unsupported signature algorithm %s", c.SignatureAlgorithm)
	}
	sigBits, unused, err := outer[2].BitString()
	if err != nil || unused != 0 {
		return nil, fmt.Errorf("x509x: signature: %v", err)
	}
	c.Signature = sigBits

	tbsFields, err := outer[0].Sequence()
	if err != nil {
		return nil, fmt.Errorf("x509x: tbsCertificate: %v", err)
	}
	i := 0
	// Version [0] EXPLICIT, optional (default v1); we require v3 since
	// every certificate in this study carries extensions.
	if i < len(tbsFields) && tbsFields[i].IsContext(0) {
		kids, err := tbsFields[i].Children()
		if err != nil || len(kids) != 1 {
			return nil, errors.New("x509x: bad version field")
		}
		ver, err := kids[0].Int64()
		if err != nil || ver != 2 {
			return nil, fmt.Errorf("x509x: unsupported version %d", ver+1)
		}
		i++
	} else {
		return nil, errors.New("x509x: certificate is not v3")
	}
	if len(tbsFields) < i+6 {
		return nil, errors.New("x509x: tbsCertificate too short")
	}
	if c.SerialNumber, err = tbsFields[i].Integer(); err != nil {
		return nil, fmt.Errorf("x509x: serial: %v", err)
	}
	// Integer accepted the field, so IntegerBytes cannot fail on it.
	if mag, neg, _ := tbsFields[i].IntegerBytes(); !neg {
		c.serial = mag
	} else {
		c.serial = c.SerialNumber.Bytes() // Raw holds the two's complement
	}
	i++
	innerAlg, err := parseAlgorithmIdentifier(tbsFields[i])
	if err != nil {
		return nil, err
	}
	if !innerAlg.Equal(c.SignatureAlgorithm) {
		return nil, errors.New("x509x: inner/outer signature algorithm mismatch")
	}
	i++
	c.RawIssuer = tbsFields[i].Full
	if c.Issuer, err = ParseName(tbsFields[i]); err != nil {
		return nil, err
	}
	i++
	validity, err := tbsFields[i].Sequence()
	if err != nil || len(validity) != 2 {
		return nil, fmt.Errorf("x509x: validity: %v", err)
	}
	if c.NotBefore, err = validity[0].Time(); err != nil {
		return nil, err
	}
	if c.NotAfter, err = validity[1].Time(); err != nil {
		return nil, err
	}
	i++
	c.RawSubject = tbsFields[i].Full
	if c.Subject, err = ParseName(tbsFields[i]); err != nil {
		return nil, err
	}
	i++
	c.RawSPKI = tbsFields[i].Full
	if c.PublicKey, err = parseSPKI(tbsFields[i]); err != nil {
		return nil, err
	}
	i++
	for ; i < len(tbsFields); i++ {
		if tbsFields[i].IsContext(3) {
			if err := c.parseExtensions(tbsFields[i]); err != nil {
				return nil, err
			}
		}
		// [1]/[2] issuerUniqueID/subjectUniqueID: obsolete, skipped.
	}
	c.ev = evNo
	if hasEVPolicy(c.PolicyOIDs) {
		c.ev = evYes
	}
	return c, nil
}

func (c *Certificate) parseExtensions(wrapper der.Value) error {
	kids, err := wrapper.Children()
	if err != nil || len(kids) != 1 {
		return errors.New("x509x: extensions wrapper")
	}
	exts, err := kids[0].Sequence()
	if err != nil {
		return fmt.Errorf("x509x: extensions: %v", err)
	}
	for _, e := range exts {
		fields, err := e.Sequence()
		if err != nil || len(fields) < 2 || len(fields) > 3 {
			return fmt.Errorf("x509x: extension structure: %v", err)
		}
		oid, err := fields[0].OID()
		if err != nil {
			return err
		}
		critical := false
		vi := 1
		if len(fields) == 3 {
			if critical, err = fields[1].Bool(); err != nil {
				return fmt.Errorf("x509x: extension critical flag: %v", err)
			}
			vi = 2
		}
		value, err := fields[vi].OctetString()
		if err != nil {
			return fmt.Errorf("x509x: extension value: %v", err)
		}
		known, err := c.applyExtension(oid, value)
		if err != nil {
			return fmt.Errorf("x509x: extension %s: %v", oid, err)
		}
		if !known && critical {
			return fmt.Errorf("x509x: unhandled critical extension %s", oid)
		}
	}
	return nil
}

func (c *Certificate) applyExtension(oid der.OID, value []byte) (known bool, err error) {
	parseOne := func() (der.Value, error) {
		v, rest, err := der.Parse(value)
		if err != nil {
			return der.Value{}, err
		}
		if len(rest) != 0 {
			return der.Value{}, errors.New("trailing bytes")
		}
		return v, nil
	}
	switch {
	case oid.Equal(OIDExtBasicConstraints):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		fields, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, f := range fields {
			switch f.Tag {
			case der.TagBoolean:
				if c.IsCA, err = f.Bool(); err != nil {
					return true, err
				}
			case der.TagInteger:
				n, err := f.Int64()
				if err != nil {
					return true, err
				}
				c.MaxPathLen = int(n)
			}
		}
		return true, nil
	case oid.Equal(OIDExtKeyUsage):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		bits, err := v.NamedBits()
		if err != nil {
			return true, err
		}
		for i, b := range bits {
			if b && i < 9 {
				c.KeyUsage |= 1 << i
			}
		}
		return true, nil
	case oid.Equal(OIDExtExtendedKeyUsage):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		oids, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, o := range oids {
			eku, err := o.OID()
			if err != nil {
				return true, err
			}
			c.ExtKeyUsage = append(c.ExtKeyUsage, eku)
		}
		return true, nil
	case oid.Equal(OIDExtSubjectAltName):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		names, err := v.Children()
		if err != nil {
			return true, err
		}
		for _, n := range names {
			if n.IsContext(2) { // dNSName
				c.DNSNames = append(c.DNSNames, string(n.Content))
			}
		}
		return true, nil
	case oid.Equal(OIDExtCRLDistribution):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		dps, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, dp := range dps {
			urls, err := crlDPURLs(dp)
			if err != nil {
				return true, err
			}
			c.CRLDistributionPoints = append(c.CRLDistributionPoints, urls...)
		}
		return true, nil
	case oid.Equal(OIDExtAuthorityInfoAccess):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		ads, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, ad := range ads {
			fields, err := ad.Sequence()
			if err != nil || len(fields) != 2 {
				return true, errors.New("AccessDescription")
			}
			method, err := fields[0].OID()
			if err != nil {
				return true, err
			}
			if !fields[1].IsContext(6) {
				continue // non-URI location
			}
			url := string(fields[1].Content)
			switch {
			case method.Equal(OIDAccessOCSP):
				c.OCSPServers = append(c.OCSPServers, url)
			case method.Equal(OIDAccessCAIssuers):
				c.CAIssuersURLs = append(c.CAIssuersURLs, url)
			}
		}
		return true, nil
	case oid.Equal(OIDExtCertPolicies):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		pis, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, pi := range pis {
			fields, err := pi.Sequence()
			if err != nil || len(fields) < 1 {
				return true, errors.New("PolicyInformation")
			}
			p, err := fields[0].OID()
			if err != nil {
				return true, err
			}
			c.PolicyOIDs = append(c.PolicyOIDs, p)
		}
		return true, nil
	case oid.Equal(OIDExtNameConstraints):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		kids, err := v.Sequence()
		if err != nil {
			return true, err
		}
		for _, k := range kids {
			if !k.IsContext(0) && !k.IsContext(1) {
				continue
			}
			trees, err := k.Children()
			if err != nil {
				return true, err
			}
			for _, tree := range trees {
				fields, err := tree.Sequence()
				if err != nil || len(fields) < 1 {
					return true, errors.New("GeneralSubtree")
				}
				if !fields[0].IsContext(2) {
					continue // non-DNS base names are not modelled
				}
				name := string(fields[0].Content)
				if k.IsContext(0) {
					c.PermittedDNSDomains = append(c.PermittedDNSDomains, name)
				} else {
					c.ExcludedDNSDomains = append(c.ExcludedDNSDomains, name)
				}
			}
		}
		return true, nil
	case oid.Equal(OIDExtSubjectKeyID):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		kid, err := v.OctetString()
		if err != nil {
			return true, err
		}
		c.SubjectKeyID = kid
		return true, nil
	case oid.Equal(OIDExtAuthorityKeyID):
		v, err := parseOne()
		if err != nil {
			return true, err
		}
		kids, err := v.Children()
		if err != nil {
			return true, err
		}
		for _, k := range kids {
			if k.IsContext(0) {
				c.AuthorityKeyID = k.Content
			}
		}
		return true, nil
	default:
		return false, nil
	}
}

// crlDPURLs extracts the http(s) URIs of one DistributionPoint.
func crlDPURLs(dp der.Value) ([]string, error) {
	fields, err := dp.Sequence()
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, f := range fields {
		if !f.IsContext(0) { // distributionPoint
			continue
		}
		inner, err := f.Children()
		if err != nil {
			return nil, err
		}
		for _, dpName := range inner {
			if !dpName.IsContext(0) { // fullName (GeneralNames)
				continue
			}
			names, err := dpName.Children()
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				if n.IsContext(6) { // URI
					urls = append(urls, string(n.Content))
				}
			}
		}
	}
	return urls, nil
}
