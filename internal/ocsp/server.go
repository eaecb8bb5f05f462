package ocsp

import (
	"crypto/ecdsa"
	"encoding/base64"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/x509x"
)

// Source answers status queries for a responder. Implementations are
// typically backed by a CA's revocation database.
type Source interface {
	// StatusFor returns the status of the certificate identified by id.
	// Returning StatusUnknown is the correct behaviour for certificates
	// the responder has never heard of.
	StatusFor(id CertID) SingleResponse
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(id CertID) SingleResponse

// StatusFor calls f(id).
func (f SourceFunc) StatusFor(id CertID) SingleResponse { return f(id) }

// Responder is an HTTP OCSP responder supporting both GET and POST
// transports (RFC 6960 Appendix A). It signs a fresh response for every
// query; wrap it in a CachingResponder to replay pre-signed responses the
// way production CAs and their CDNs do (§2.2, §5).
type Responder struct {
	Source Source
	// Signer is the certificate whose key signs responses — the issuing
	// CA itself or a delegated OCSP-signing certificate.
	Signer *x509x.Certificate
	Key    *ecdsa.PrivateKey
	// Now supplies the response production time; time.Now when nil.
	// The simulation points this at the virtual clock.
	Now func() time.Time
	// Validity is how long responses remain valid (nextUpdate -
	// thisUpdate). OCSP responses are typically valid for days — longer
	// than most CRLs (§2.2). Zero means 4 days.
	Validity time.Duration
	// ForceStatus, when non-nil, overrides the Source for every query —
	// used by the browser test suite to serve always-unknown responders.
	ForceStatus *Status
	// EchoNonce controls whether request nonces are reflected.
	EchoNonce bool
}

func (r *Responder) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

func (r *Responder) validity() time.Duration {
	if r.Validity > 0 {
		return r.Validity
	}
	return 4 * 24 * time.Hour
}

// errMethodNotAllowed marks HTTP methods outside GET/POST.
var errMethodNotAllowed = errors.New("ocsp: method not allowed")

// requestDERFromHTTP extracts the DER-encoded OCSP request from its HTTP
// carrier: the base64 URL path for GET (RFC 6960 A.1), the body for POST.
func requestDERFromHTTP(httpReq *http.Request) ([]byte, error) {
	switch httpReq.Method {
	case http.MethodGet:
		return base64.StdEncoding.DecodeString(getPayload(httpReq.URL))
	case http.MethodPost:
		return io.ReadAll(io.LimitReader(httpReq.Body, 1<<20))
	default:
		return nil, errMethodNotAllowed
	}
}

// getPayload returns the base64 text of a GET request: the whole URL path
// after its leading '/' (the base64 alphabet includes '/', so the
// encoding may span what looks like several path segments). Clients
// differ on whether they percent-escape the base64, as the RFC says, or
// append it raw, '+' and '=' included; URL.Path holds the unescaped text
// of either. It is both the text requestDERFromHTTP decodes and the
// CachingResponder's transport key, so requests with one key decode to
// one DER.
//
// Decoding the escaped path, as this responder once did, reads the same
// text for every request a server receives. EscapedPath is an escaping
// of Path (RawPath when that is one, else Path escaped afresh) and both
// begin with '/', so PathUnescape of the trimmed EscapedPath is the
// trimmed Path. The old fallback to the escaped text itself succeeded
// only when that text held no '%', and then it equals its unescaping.
// Reading Path also spares the cache-hit path EscapedPath's validation
// of RawPath, which allocates whenever the client escaped anything.
func getPayload(u *url.URL) string {
	return strings.TrimPrefix(u.Path, "/")
}

// decodeHTTPRequest pulls the DER request out of httpReq, writing the
// appropriate HTTP or OCSP error itself when that fails.
func decodeHTTPRequest(w http.ResponseWriter, httpReq *http.Request) ([]byte, bool) {
	reqDER, err := requestDERFromHTTP(httpReq)
	switch {
	case err == errMethodNotAllowed:
		w.WriteHeader(http.StatusMethodNotAllowed)
		return nil, false
	case err != nil && httpReq.Method == http.MethodPost:
		writeError(w, RespInternalError)
		return nil, false
	case err != nil:
		writeError(w, RespMalformedRequest)
		return nil, false
	}
	return reqDER, true
}

// template assembles the response template for req at time now, applying
// ForceStatus and filling default update windows.
func (r *Responder) template(req *Request, now time.Time) *ResponseTemplate {
	tmpl := &ResponseTemplate{
		ProducedAt: now,
		Responses:  make([]SingleResponse, 0, len(req.IDs)),
	}
	if r.EchoNonce {
		tmpl.Nonce = req.Nonce
	}
	for _, id := range req.IDs {
		var sr SingleResponse
		if r.ForceStatus != nil {
			sr = SingleResponse{ID: id, Status: *r.ForceStatus}
		} else {
			sr = r.Source.StatusFor(id)
			sr.ID = id
		}
		if sr.ThisUpdate.IsZero() {
			sr.ThisUpdate = now
		}
		if sr.NextUpdate.IsZero() {
			sr.NextUpdate = sr.ThisUpdate.Add(r.validity())
		}
		tmpl.Responses = append(tmpl.Responses, sr)
	}
	return tmpl
}

// ServeHTTP implements http.Handler.
func (r *Responder) ServeHTTP(w http.ResponseWriter, httpReq *http.Request) {
	reqDER, ok := decodeHTTPRequest(w, httpReq)
	if !ok {
		return
	}
	req, err := ParseRequest(reqDER)
	if err != nil || len(req.IDs) == 0 {
		writeError(w, RespMalformedRequest)
		return
	}
	respDER, err := CreateResponse(r.template(req, r.now()), r.Signer, r.Key)
	if err != nil {
		writeError(w, RespInternalError)
		return
	}
	writeDER(w, respDER)
}

// writeDER sends an OCSP response body with its framing headers.
func writeDER(w http.ResponseWriter, respDER []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/ocsp-response")
	h.Set("Content-Length", strconv.Itoa(len(respDER)))
	w.Write(respDER)
}

// writeError sends one of the interned error responses.
func writeError(w http.ResponseWriter, status ResponseStatus) {
	writeDER(w, ErrorResponseDER(status))
}
