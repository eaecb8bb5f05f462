// Package x509x implements X.509 v3 certificates from scratch on top of the
// der codec: construction, ECDSA-P256/SHA-256 signing, strict parsing, and
// the extension set the revocation study depends on (Basic Constraints, Key
// Usage, SAN, CRL Distribution Points, Authority Information Access,
// Certificate Policies / EV indicators, key identifiers).
//
// Encodings are interoperable with crypto/x509 in both directions, which the
// test suite verifies; the live TLS paths in this repository rely on that.
package x509x

import "repro/internal/der"

// OID aliases der.OID so that callers building templates need not import
// the codec package directly.
type OID = der.OID

// Signature and key algorithm identifiers.
var (
	// OIDSignatureECDSAWithSHA256 is ecdsa-with-SHA256 (RFC 5758).
	OIDSignatureECDSAWithSHA256 = der.MustOID("1.2.840.10045.4.3.2")
	// OIDPublicKeyECDSA is id-ecPublicKey.
	OIDPublicKeyECDSA = der.MustOID("1.2.840.10045.2.1")
	// OIDCurveP256 is secp256r1 / prime256v1.
	OIDCurveP256 = der.MustOID("1.2.840.10045.3.1.7")
)

// Distinguished-name attribute types.
var (
	OIDAttrCountry          = der.MustOID("2.5.4.6")
	OIDAttrOrganization     = der.MustOID("2.5.4.10")
	OIDAttrOrganizationUnit = der.MustOID("2.5.4.11")
	OIDAttrCommonName       = der.MustOID("2.5.4.3")
)

// Certificate extensions.
var (
	OIDExtSubjectKeyID        = der.MustOID("2.5.29.14")
	OIDExtKeyUsage            = der.MustOID("2.5.29.15")
	OIDExtSubjectAltName      = der.MustOID("2.5.29.17")
	OIDExtBasicConstraints    = der.MustOID("2.5.29.19")
	OIDExtCRLNumber           = der.MustOID("2.5.29.20")
	OIDExtCRLReason           = der.MustOID("2.5.29.21")
	OIDExtNameConstraints     = der.MustOID("2.5.29.30")
	OIDExtCRLDistribution     = der.MustOID("2.5.29.31")
	OIDExtCertPolicies        = der.MustOID("2.5.29.32")
	OIDExtAuthorityKeyID      = der.MustOID("2.5.29.35")
	OIDExtExtendedKeyUsage    = der.MustOID("2.5.29.37")
	OIDExtAuthorityInfoAccess = der.MustOID("1.3.6.1.5.5.7.1.1")
)

// Authority-information-access methods and extended key usages.
var (
	OIDAccessOCSP      = der.MustOID("1.3.6.1.5.5.7.48.1")
	OIDAccessCAIssuers = der.MustOID("1.3.6.1.5.5.7.48.2")
	OIDEKUServerAuth   = der.MustOID("1.3.6.1.5.5.7.3.1")
	OIDEKUOCSPSigning  = der.MustOID("1.3.6.1.5.5.7.3.9")
	// OIDOCSPNonce is the OCSP nonce extension (RFC 6960 §4.4.1).
	OIDOCSPNonce = der.MustOID("1.3.6.1.5.5.7.48.1.2")
	// OIDOCSPBasic identifies the basic OCSP response type.
	OIDOCSPBasic = der.MustOID("1.3.6.1.5.5.7.48.1.1")
)

// EV policy identifiers. The study's test suite marks EV leaves with the
// Verisign EV policy OID (the same one the paper used, §6.1).
var (
	// OIDPolicyVerisignEV is 2.16.840.1.113733.1.7.23.6.
	OIDPolicyVerisignEV = der.MustOID("2.16.840.1.113733.1.7.23.6")
)

// EVPolicyOIDs is the set of policy OIDs that this codebase treats as
// indicating an Extended Validation certificate.
var EVPolicyOIDs = []der.OID{OIDPolicyVerisignEV}
