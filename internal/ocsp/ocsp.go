// Package ocsp implements the Online Certificate Status Protocol (RFC 6960)
// from scratch: request and response wire formats, an HTTP client speaking
// both GET and POST transports, and an HTTP responder. The paper's client
// study exercises good/revoked/unknown statuses, responder outages, and
// OCSP stapling; all of those behaviours originate here.
package ocsp

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/crl"
	"repro/internal/der"
	"repro/internal/x509x"
)

// Status is the revocation status of a single certificate.
type Status int

// Certificate statuses (RFC 6960 §4.2.1).
const (
	// StatusGood indicates the responder knows of no revocation.
	StatusGood Status = iota
	// StatusRevoked indicates the certificate has been revoked.
	StatusRevoked
	// StatusUnknown indicates the responder does not know the
	// certificate. The spec is explicit that unknown does NOT mean the
	// certificate should be trusted — several browsers get this wrong
	// (Table 2's "Reject unknown status" row).
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusGood:
		return "good"
	case StatusRevoked:
		return "revoked"
	case StatusUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ResponseStatus is the OCSP response-level status.
type ResponseStatus int

// Response statuses (RFC 6960 §4.2.1).
const (
	RespSuccessful       ResponseStatus = 0
	RespMalformedRequest ResponseStatus = 1
	RespInternalError    ResponseStatus = 2
	RespTryLater         ResponseStatus = 3
	RespSigRequired      ResponseStatus = 5
	RespUnauthorized     ResponseStatus = 6
)

func (s ResponseStatus) String() string {
	switch s {
	case RespSuccessful:
		return "successful"
	case RespMalformedRequest:
		return "malformedRequest"
	case RespInternalError:
		return "internalError"
	case RespTryLater:
		return "tryLater"
	case RespSigRequired:
		return "sigRequired"
	case RespUnauthorized:
		return "unauthorized"
	default:
		return fmt.Sprintf("responseStatus(%d)", int(s))
	}
}

// oidHashSHA256 identifies the hash used inside CertID.
var oidHashSHA256 = der.MustOID("2.16.840.1.101.3.4.2.1")

// CertID identifies a certificate to an OCSP responder: hashes of the
// issuer's name and key, plus the certificate serial. This implementation
// fixes the hash algorithm to SHA-256.
type CertID struct {
	IssuerNameHash []byte
	IssuerKeyHash  []byte
	Serial         *big.Int
}

// NewCertID builds the CertID for the certificate with the given serial
// issued by issuer. The two hashes are the issuer's memoised identity
// (x509x.Certificate.NameHash, KeyHash), so a CertID costs no SHA-256
// after the issuer's first; the CertID keeps serial itself, not a copy.
func NewCertID(issuer *x509x.Certificate, serial *big.Int) CertID {
	nameHash, keyHash := issuer.NameHash(), issuer.KeyHash()
	return CertID{
		IssuerNameHash: nameHash[:],
		IssuerKeyHash:  keyHash[:],
		Serial:         serial,
	}
}

// Key returns a map key uniquely identifying this CertID.
func (id CertID) Key() string {
	return string(id.IssuerNameHash) + "|" + string(id.IssuerKeyHash) + "|" + string(id.Serial.Bytes())
}

// Equal reports whether two CertIDs identify the same certificate.
func (id CertID) Equal(other CertID) bool {
	return bytes.Equal(id.IssuerNameHash, other.IssuerNameHash) &&
		bytes.Equal(id.IssuerKeyHash, other.IssuerKeyHash) &&
		id.Serial.Cmp(other.Serial) == 0
}

func (id CertID) encode() []byte {
	return der.Sequence(
		der.Sequence(der.EncodeOID(oidHashSHA256), der.Null()),
		der.OctetString(id.IssuerNameHash),
		der.OctetString(id.IssuerKeyHash),
		der.Integer(id.Serial),
	)
}

func parseCertID(v der.Value) (CertID, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) != 4 {
		return CertID{}, fmt.Errorf("ocsp: CertID: %v", err)
	}
	algFields, err := fields[0].Sequence()
	if err != nil || len(algFields) < 1 {
		return CertID{}, fmt.Errorf("ocsp: CertID algorithm: %v", err)
	}
	alg, err := algFields[0].OID()
	if err != nil {
		return CertID{}, err
	}
	if !alg.Equal(oidHashSHA256) {
		return CertID{}, fmt.Errorf("ocsp: unsupported CertID hash %s", alg)
	}
	var id CertID
	if id.IssuerNameHash, err = fields[1].OctetString(); err != nil {
		return CertID{}, err
	}
	if id.IssuerKeyHash, err = fields[2].OctetString(); err != nil {
		return CertID{}, err
	}
	if id.Serial, err = fields[3].Integer(); err != nil {
		return CertID{}, err
	}
	return id, nil
}

// Request is an OCSP request for the status of one or more certificates.
type Request struct {
	IDs   []CertID
	Nonce []byte // optional anti-replay nonce
}

// Marshal encodes the request as DER.
func (r *Request) Marshal() []byte {
	reqs := make([][]byte, len(r.IDs))
	for i, id := range r.IDs {
		reqs[i] = der.Sequence(id.encode())
	}
	tbsParts := [][]byte{der.Sequence(reqs...)}
	if len(r.Nonce) > 0 {
		nonceExt := der.Sequence(
			der.EncodeOID(x509x.OIDOCSPNonce),
			der.OctetString(der.OctetString(r.Nonce)),
		)
		tbsParts = append(tbsParts, der.Explicit(2, der.Sequence(nonceExt)))
	}
	return der.Sequence(der.Sequence(tbsParts...))
}

// ParseRequest decodes a DER OCSP request.
func ParseRequest(raw []byte) (*Request, error) {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("ocsp: request: %v", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: request: trailing bytes")
	}
	outer, err := top.Sequence()
	if err != nil || len(outer) < 1 {
		return nil, fmt.Errorf("ocsp: OCSPRequest: %v", err)
	}
	tbsFields, err := outer[0].Sequence()
	if err != nil || len(tbsFields) < 1 {
		return nil, fmt.Errorf("ocsp: tbsRequest: %v", err)
	}
	i := 0
	// Optional [0] version and [1] requestorName are skipped.
	for i < len(tbsFields) && (tbsFields[i].IsContext(0) || tbsFields[i].IsContext(1)) {
		i++
	}
	if i >= len(tbsFields) {
		return nil, errors.New("ocsp: missing requestList")
	}
	list, err := tbsFields[i].Sequence()
	if err != nil {
		return nil, fmt.Errorf("ocsp: requestList: %v", err)
	}
	req := &Request{}
	for _, rv := range list {
		fields, err := rv.Sequence()
		if err != nil || len(fields) < 1 {
			return nil, fmt.Errorf("ocsp: Request: %v", err)
		}
		id, err := parseCertID(fields[0])
		if err != nil {
			return nil, err
		}
		req.IDs = append(req.IDs, id)
	}
	i++
	if i < len(tbsFields) && tbsFields[i].IsContext(2) {
		nonce, err := parseNonceExtensions(tbsFields[i])
		if err != nil {
			return nil, err
		}
		req.Nonce = nonce
	}
	return req, nil
}

func parseNonceExtensions(wrapper der.Value) ([]byte, error) {
	kids, err := wrapper.Children()
	if err != nil || len(kids) != 1 {
		return nil, errors.New("ocsp: extensions wrapper")
	}
	exts, err := kids[0].Sequence()
	if err != nil {
		return nil, err
	}
	for _, ext := range exts {
		fields, err := ext.Sequence()
		if err != nil || len(fields) < 2 {
			return nil, fmt.Errorf("ocsp: extension: %v", err)
		}
		oid, err := fields[0].OID()
		if err != nil {
			return nil, err
		}
		if !oid.Equal(x509x.OIDOCSPNonce) {
			continue
		}
		value, err := fields[len(fields)-1].OctetString()
		if err != nil {
			return nil, err
		}
		inner, rest, err := der.Parse(value)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("ocsp: nonce value: %v", err)
		}
		return inner.OctetString()
	}
	return nil, nil
}

// SingleResponse reports the status of one certificate.
type SingleResponse struct {
	ID         CertID
	Status     Status
	RevokedAt  time.Time  // set when Status == StatusRevoked
	Reason     crl.Reason // revocation reason, ReasonAbsent when none
	ThisUpdate time.Time
	NextUpdate time.Time // zero when absent
}

// CurrentAt reports whether the single response is within its validity
// window at t; responses without nextUpdate never expire.
func (sr SingleResponse) CurrentAt(t time.Time) bool {
	if t.Before(sr.ThisUpdate) {
		return false
	}
	return sr.NextUpdate.IsZero() || !t.After(sr.NextUpdate)
}

// Response is a parsed OCSP response.
type Response struct {
	Raw        []byte
	RespStatus ResponseStatus

	// Fields below are only populated for successful responses.
	RawTBS           []byte
	Signature        []byte
	ResponderKeyHash []byte
	ProducedAt       time.Time
	Responses        []SingleResponse
	Nonce            []byte
	// Certificates carries the responder certificates embedded in the
	// response — a delegated OCSP-signing certificate when the CA does
	// not sign responses directly (RFC 6960 §4.2.2.2).
	Certificates []*x509x.Certificate
}

// Find returns the SingleResponse matching id.
func (r *Response) Find(id CertID) (SingleResponse, bool) {
	for _, sr := range r.Responses {
		if sr.ID.Equal(id) {
			return sr, true
		}
	}
	return SingleResponse{}, false
}

// signedBy reports whether the response carries signer's key hash and a
// signature that signer's key verifies.
func (r *Response) signedBy(signer *x509x.Certificate) bool {
	keyHash := signer.KeyHash()
	return bytes.Equal(keyHash[:], r.ResponderKeyHash) && x509x.VerifyDigest(signer.PublicKey, r.RawTBS, r.Signature) == nil
}

// VerifySignatureFrom checks the response signature against the issuing
// CA, accepting either of RFC 6960's authorization models: the response is
// signed by the CA itself, or by a delegated responder certificate that
// the CA issued with the id-kp-OCSPSigning extended key usage and which is
// embedded in the response. Any other signer gives ErrSignature.
func (r *Response) VerifySignatureFrom(issuer *x509x.Certificate) error {
	if r.signedBy(issuer) {
		return nil
	}
	for _, cert := range r.Certificates {
		if hasOCSPSigningEKU(cert) && cert.CheckSignatureFrom(issuer) == nil && r.signedBy(cert) {
			return nil
		}
	}
	return ErrSignature
}

// The check's failure classes beside an unparseable response
// (ParseResponse's error) and a non-successful one (*ResponderError).
var (
	ErrSignature  = errors.New("ocsp: response signed neither by the CA nor by an authorized delegated responder")
	ErrNotCovered = errors.New("ocsp: response does not cover requested certificate")
	ErrNotCurrent = errors.New("ocsp: response outside its validity window")
)

// check is the rule for when an OCSP answer counts, fetched or stapled:
// resp is successful, signed by issuer or a delegate it authorised (one
// verify however many ids), answers every one of ids (out[i] for ids[i])
// and each answer is current at now (else ErrNotCurrent, out filled).
func check(resp *Response, issuer *x509x.Certificate, ids []CertID, now time.Time, out []SingleResponse) error {
	if resp.RespStatus != RespSuccessful {
		return &ResponderError{Status: resp.RespStatus}
	}
	if err := resp.VerifySignatureFrom(issuer); err != nil {
		return err
	}
	var err error
	for i, id := range ids {
		sr, ok := resp.Find(id)
		if !ok {
			return ErrNotCovered
		}
		if !sr.CurrentAt(now) {
			err = ErrNotCurrent
		}
		out[i] = sr
	}
	return err
}

// CheckStaple applies the check to stapled bytes for the certificate
// with the given serial issued by issuer.
func CheckStaple(raw []byte, issuer *x509x.Certificate, serial *big.Int, now time.Time) (SingleResponse, error) {
	resp, err := ParseResponse(raw)
	if err != nil {
		return SingleResponse{}, err
	}
	var out [1]SingleResponse
	err = check(resp, issuer, []CertID{NewCertID(issuer, serial)}, now, out[:])
	return out[0], err
}

func hasOCSPSigningEKU(cert *x509x.Certificate) bool {
	for _, eku := range cert.ExtKeyUsage {
		if eku.Equal(x509x.OIDEKUOCSPSigning) {
			return true
		}
	}
	return false
}

// ResponseTemplate describes a successful response to be created.
type ResponseTemplate struct {
	ProducedAt time.Time
	Responses  []SingleResponse
	Nonce      []byte
}

// CreateResponse builds and signs a successful OCSP response.
func CreateResponse(tmpl *ResponseTemplate, signer *x509x.Certificate, key *ecdsa.PrivateKey) ([]byte, error) {
	singles := make([][]byte, len(tmpl.Responses))
	for i, sr := range tmpl.Responses {
		enc, err := encodeSingle(sr)
		if err != nil {
			return nil, err
		}
		singles[i] = enc
	}
	keyHash := signer.KeyHash()
	tbsParts := [][]byte{
		der.Implicit(2, true, der.OctetString(keyHash[:])), // responderID byKey
		der.GeneralizedTime(tmpl.ProducedAt),
		der.Sequence(singles...),
	}
	if len(tmpl.Nonce) > 0 {
		nonceExt := der.Sequence(
			der.EncodeOID(x509x.OIDOCSPNonce),
			der.OctetString(der.OctetString(tmpl.Nonce)),
		)
		tbsParts = append(tbsParts, der.Explicit(1, der.Sequence(nonceExt)))
	}
	tbs := der.Sequence(tbsParts...)
	sig, err := x509x.SignDigest(key, tbs)
	if err != nil {
		return nil, fmt.Errorf("ocsp: signing: %v", err)
	}
	basic := der.Sequence(
		tbs,
		der.Sequence(der.EncodeOID(x509x.OIDSignatureECDSAWithSHA256)),
		der.BitString(sig),
		der.Explicit(0, der.Sequence(signer.Raw)),
	)
	return der.Sequence(
		der.Enumerated(int64(RespSuccessful)),
		der.Explicit(0, der.Sequence(
			der.EncodeOID(x509x.OIDOCSPBasic),
			der.OctetString(basic),
		)),
	), nil
}

// createErrorResponse builds an unsigned error response (tryLater,
// unauthorized, etc.). The encoding is pure — same status, same bytes —
// so hot paths should prefer ErrorResponseDER, which interns the common
// statuses instead of re-encoding per request.
func createErrorResponse(status ResponseStatus) []byte {
	return der.Sequence(der.Enumerated(int64(status)))
}

// Interned encodings of the error statuses responders emit on hot paths.
var (
	errorDERMalformed    = createErrorResponse(RespMalformedRequest)
	errorDERInternal     = createErrorResponse(RespInternalError)
	errorDERTryLater     = createErrorResponse(RespTryLater)
	errorDERUnauthorized = createErrorResponse(RespUnauthorized)
)

// ErrorResponseDER returns the pre-encoded DER for the common error
// statuses, computed once at package init, falling back to a fresh
// encoding for anything else. Callers must treat the bytes as read-only.
func ErrorResponseDER(status ResponseStatus) []byte {
	switch status {
	case RespMalformedRequest:
		return errorDERMalformed
	case RespInternalError:
		return errorDERInternal
	case RespTryLater:
		return errorDERTryLater
	case RespUnauthorized:
		return errorDERUnauthorized
	default:
		return createErrorResponse(status)
	}
}

func encodeSingle(sr SingleResponse) ([]byte, error) {
	var status []byte
	switch sr.Status {
	case StatusGood:
		status = der.Implicit(0, false, nil)
	case StatusRevoked:
		inner := [][]byte{der.GeneralizedTime(sr.RevokedAt)}
		if sr.Reason != crl.ReasonAbsent {
			inner = append(inner, der.Explicit(0, der.Enumerated(int64(sr.Reason))))
		}
		status = der.Implicit(1, true, bytes.Join(inner, nil))
	case StatusUnknown:
		status = der.Implicit(2, false, nil)
	default:
		return nil, fmt.Errorf("ocsp: invalid status %v", sr.Status)
	}
	parts := [][]byte{sr.ID.encode(), status, der.GeneralizedTime(sr.ThisUpdate)}
	if !sr.NextUpdate.IsZero() {
		parts = append(parts, der.Explicit(0, der.GeneralizedTime(sr.NextUpdate)))
	}
	return der.Sequence(parts...), nil
}

// ParseResponse decodes a DER OCSP response. For non-successful statuses
// only RespStatus is populated.
func ParseResponse(raw []byte) (*Response, error) {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("ocsp: response: %v", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: response: trailing bytes")
	}
	outer, err := top.Sequence()
	if err != nil || len(outer) < 1 {
		return nil, fmt.Errorf("ocsp: OCSPResponse: %v", err)
	}
	statusCode, err := outer[0].Enumerated()
	if err != nil {
		return nil, err
	}
	resp := &Response{Raw: top.Full, RespStatus: ResponseStatus(statusCode)}
	if resp.RespStatus != RespSuccessful {
		return resp, nil
	}
	if len(outer) != 2 || !outer[1].IsContext(0) {
		return nil, errors.New("ocsp: successful response missing responseBytes")
	}
	rbKids, err := outer[1].Children()
	if err != nil || len(rbKids) != 1 {
		return nil, errors.New("ocsp: responseBytes wrapper")
	}
	rbFields, err := rbKids[0].Sequence()
	if err != nil || len(rbFields) != 2 {
		return nil, fmt.Errorf("ocsp: ResponseBytes: %v", err)
	}
	respType, err := rbFields[0].OID()
	if err != nil {
		return nil, err
	}
	if !respType.Equal(x509x.OIDOCSPBasic) {
		return nil, fmt.Errorf("ocsp: unsupported response type %s", respType)
	}
	basicRaw, err := rbFields[1].OctetString()
	if err != nil {
		return nil, err
	}
	return resp, resp.parseBasic(basicRaw)
}

func (r *Response) parseBasic(raw []byte) error {
	top, rest, err := der.Parse(raw)
	if err != nil {
		return fmt.Errorf("ocsp: BasicOCSPResponse: %v", err)
	}
	if len(rest) != 0 {
		return errors.New("ocsp: BasicOCSPResponse: trailing bytes")
	}
	fields, err := top.Sequence()
	if err != nil || len(fields) < 3 {
		return fmt.Errorf("ocsp: BasicOCSPResponse structure: %v", err)
	}
	r.RawTBS = fields[0].Full
	alg, err := parseAlgID(fields[1])
	if err != nil {
		return err
	}
	if !alg.Equal(x509x.OIDSignatureECDSAWithSHA256) {
		return fmt.Errorf("ocsp: unsupported signature algorithm %s", alg)
	}
	sig, unused, err := fields[2].BitString()
	if err != nil || unused != 0 {
		return fmt.Errorf("ocsp: signature: %v", err)
	}
	r.Signature = sig

	tbsFields, err := fields[0].Sequence()
	if err != nil || len(tbsFields) < 3 {
		return fmt.Errorf("ocsp: tbsResponseData: %v", err)
	}
	i := 0
	if tbsFields[i].IsContext(0) { // version
		i++
	}
	switch {
	case tbsFields[i].IsContext(2): // byKey
		keyOctets, rest, err := der.Parse(tbsFields[i].Content)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("ocsp: responderID byKey: %v", err)
		}
		if r.ResponderKeyHash, err = keyOctets.OctetString(); err != nil {
			return err
		}
	case tbsFields[i].IsContext(1): // byName — accepted but unhashed
	default:
		return errors.New("ocsp: missing responderID")
	}
	i++
	if r.ProducedAt, err = tbsFields[i].Time(); err != nil {
		return err
	}
	i++
	singles, err := tbsFields[i].Sequence()
	if err != nil {
		return fmt.Errorf("ocsp: responses: %v", err)
	}
	for _, sv := range singles {
		sr, err := parseSingle(sv)
		if err != nil {
			return err
		}
		r.Responses = append(r.Responses, sr)
	}
	i++
	if i < len(tbsFields) && tbsFields[i].IsContext(1) {
		nonce, err := parseNonceExtensions(tbsFields[i])
		if err != nil {
			return err
		}
		r.Nonce = nonce
	}
	// Optional [0] certs at the BasicOCSPResponse level.
	if len(fields) > 3 && fields[3].IsContext(0) {
		kids, err := fields[3].Children()
		if err != nil || len(kids) != 1 {
			return errors.New("ocsp: certs wrapper")
		}
		certVals, err := kids[0].Sequence()
		if err != nil {
			return err
		}
		for _, cv := range certVals {
			cert, err := x509x.Parse(cv.Full)
			if err != nil {
				return fmt.Errorf("ocsp: embedded certificate: %w", err)
			}
			r.Certificates = append(r.Certificates, cert)
		}
	}
	return nil
}

func parseAlgID(v der.Value) (der.OID, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 1 {
		return nil, fmt.Errorf("ocsp: AlgorithmIdentifier: %v", err)
	}
	return fields[0].OID()
}

func parseSingle(v der.Value) (SingleResponse, error) {
	fields, err := v.Sequence()
	if err != nil || len(fields) < 3 {
		return SingleResponse{}, fmt.Errorf("ocsp: SingleResponse: %v", err)
	}
	sr := SingleResponse{Reason: crl.ReasonAbsent}
	if sr.ID, err = parseCertID(fields[0]); err != nil {
		return SingleResponse{}, err
	}
	statusV := fields[1]
	if statusV.Class != der.ClassContextSpecific {
		return SingleResponse{}, errors.New("ocsp: certStatus must be context-specific")
	}
	switch statusV.Tag {
	case 0:
		sr.Status = StatusGood
	case 1:
		sr.Status = StatusRevoked
		kids, err := der.ParseAll(statusV.Content)
		if err != nil || len(kids) < 1 {
			return SingleResponse{}, fmt.Errorf("ocsp: RevokedInfo: %v", err)
		}
		if sr.RevokedAt, err = kids[0].Time(); err != nil {
			return SingleResponse{}, err
		}
		if len(kids) > 1 && kids[1].IsContext(0) {
			rk, err := kids[1].Children()
			if err != nil || len(rk) != 1 {
				return SingleResponse{}, errors.New("ocsp: revocationReason")
			}
			code, err := rk[0].Enumerated()
			if err != nil {
				return SingleResponse{}, err
			}
			sr.Reason = crl.Reason(code)
		}
	case 2:
		sr.Status = StatusUnknown
	default:
		return SingleResponse{}, fmt.Errorf("ocsp: unknown certStatus tag %d", statusV.Tag)
	}
	if sr.ThisUpdate, err = fields[2].Time(); err != nil {
		return SingleResponse{}, err
	}
	if len(fields) > 3 && fields[3].IsContext(0) {
		kids, err := fields[3].Children()
		if err != nil || len(kids) != 1 {
			return SingleResponse{}, errors.New("ocsp: nextUpdate")
		}
		if sr.NextUpdate, err = kids[0].Time(); err != nil {
			return SingleResponse{}, err
		}
	}
	return sr, nil
}
