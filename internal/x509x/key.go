package x509x

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/der"
)

// GenerateKey creates a fresh ECDSA P-256 key pair.
func GenerateKey() (*ecdsa.PrivateKey, error) {
	return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
}

// MarshalPKIX encodes an ECDSA P-256 public key as a DER
// SubjectPublicKeyInfo.
func MarshalPKIX(pub *ecdsa.PublicKey) []byte {
	point := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	alg := der.Sequence(der.EncodeOID(OIDPublicKeyECDSA), der.EncodeOID(OIDCurveP256))
	return der.Sequence(alg, der.BitString(point))
}

func parseSPKI(v der.Value) (*ecdsa.PublicKey, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) != 2 {
		return nil, fmt.Errorf("x509x: SPKI structure: %v", err)
	}
	algFields, err := fields[0].Sequence()
	if err != nil || len(algFields) < 1 {
		return nil, fmt.Errorf("x509x: SPKI algorithm: %v", err)
	}
	algOID, err := algFields[0].OID()
	if err != nil {
		return nil, err
	}
	if !algOID.Equal(OIDPublicKeyECDSA) {
		return nil, fmt.Errorf("x509x: unsupported key algorithm %s", algOID)
	}
	if len(algFields) != 2 {
		return nil, errors.New("x509x: EC key missing curve parameters")
	}
	curveOID, err := algFields[1].OID()
	if err != nil {
		return nil, err
	}
	if !curveOID.Equal(OIDCurveP256) {
		return nil, fmt.Errorf("x509x: unsupported curve %s", curveOID)
	}
	point, unused, err := fields[1].BitString()
	if err != nil || unused != 0 {
		return nil, fmt.Errorf("x509x: SPKI key bits: %v", err)
	}
	x, y := elliptic.Unmarshal(elliptic.P256(), point)
	if x == nil {
		return nil, errors.New("x509x: invalid EC point")
	}
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, nil
}

// SignDigest signs the SHA-256 digest of msg and returns a DER-encoded
// ECDSA signature (SEQUENCE { r, s }).
func SignDigest(key *ecdsa.PrivateKey, msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return ecdsa.SignASN1(rand.Reader, key, digest[:])
}

// VerifyDigest checks a DER-encoded ECDSA signature over the SHA-256
// digest of msg.
func VerifyDigest(pub *ecdsa.PublicKey, msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return errors.New("x509x: ECDSA signature verification failed")
	}
	return nil
}

// SPKIHash returns the SHA-256 hash of a subject's SubjectPublicKeyInfo —
// the key CRLSets use to identify a certificate's issuer ("parent", §7.1).
func SPKIHash(spki []byte) [32]byte { return sha256.Sum256(spki) }

// KeyID derives a subject key identifier: the SHA-256 hash of the SPKI
// truncated to 20 bytes (the method RFC 7093 recommends).
func KeyID(pub *ecdsa.PublicKey) []byte {
	h := sha256.Sum256(MarshalPKIX(pub))
	return h[:20]
}

// algorithmIdentifierECDSASHA256 encodes the AlgorithmIdentifier for
// ecdsa-with-SHA256; RFC 5758 requires the parameters field be absent.
func algorithmIdentifierECDSASHA256() []byte {
	return der.Sequence(der.EncodeOID(OIDSignatureECDSAWithSHA256))
}

// parseAlgorithmIdentifier returns the algorithm OID of an
// AlgorithmIdentifier, ignoring any parameters.
func parseAlgorithmIdentifier(v der.Value) (der.OID, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 1 {
		return nil, fmt.Errorf("x509x: AlgorithmIdentifier: %v", err)
	}
	return fields[0].OID()
}

// serialBytes reports how many content bytes the DER INTEGER encoding of
// serial occupies — used by the CRL-size model (Figure 5's per-entry size
// varies with CA serial-number policy).
func serialBytes(serial *big.Int) int {
	b := serial.Bytes()
	if len(b) == 0 {
		return 1
	}
	if b[0]&0x80 != 0 {
		return len(b) + 1
	}
	return len(b)
}
