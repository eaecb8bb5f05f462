package ocsp

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/x509x"
)

// Transport selects how the client submits OCSP requests. Real browsers
// mostly use GET (the paper had to patch OpenSSL's responder to support
// it); POST is the original RFC mechanism.
type Transport int

// TransportPOST selects POST; the zero Transport is GET.
const TransportPOST Transport = 1

// TransportError wraps an HTTP-layer failure: the request never produced
// an OCSP response at all (connection refused, timeout, DNS). Callers use
// it to distinguish "the responder is unreachable" from "the responder
// answered with an error" when attributing availability failures (§5).
type TransportError struct {
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("ocsp: fetch: %v", e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// StatusError reports a non-200 HTTP status from the responder: the
// server is reachable but its HTTP front end failed the request.
type StatusError struct {
	Code int
}

func (e *StatusError) Error() string { return fmt.Sprintf("ocsp: responder HTTP status %d", e.Code) }

// ResponderError reports that the responder answered with a well-formed
// OCSP error response (tryLater, internalError, …) instead of a status.
// The responder is up and speaking OCSP — the failure is on the OCSP
// layer, not the transport.
type ResponderError struct {
	Status ResponseStatus
}

func (e *ResponderError) Error() string { return fmt.Sprintf("ocsp: responder returned %v", e.Status) }

// Client queries OCSP responders over HTTP.
type Client struct {
	// HTTP is the underlying client; http.DefaultClient when nil.
	HTTP *http.Client
	// Transport selects GET or POST; default GET.
	Transport Transport
}

// maxResponseBytes caps the response body read.
const maxResponseBytes = 1 << 20

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// CheckContext asks the responder at responderURL for the status of the
// certificate with the given serial, issued by issuer, and applies the
// check at now before returning the answer (with it on ErrNotCurrent).
// The context's deadline bounds the HTTP exchange, so a hung responder
// cannot stall the caller past its budget.
func (c *Client) CheckContext(ctx context.Context, responderURL string, issuer *x509x.Certificate, serial *big.Int, now time.Time) (SingleResponse, error) {
	srs, err := c.CheckBatchContext(ctx, responderURL, issuer, []*big.Int{serial}, now)
	if srs == nil {
		return SingleResponse{}, err
	}
	return srs[0], err
}

// CheckBatchContext asks the responder for the status of several
// certificates from the same issuer in one HTTP exchange — RFC 6960
// allows a request to carry multiple Request entries — and applies the
// check to the whole batch, verifying its signature once. Statuses are
// returned in serials order, also with ErrNotCurrent; any other error is
// global to the batch and returns none.
func (c *Client) CheckBatchContext(ctx context.Context, responderURL string, issuer *x509x.Certificate, serials []*big.Int, now time.Time) ([]SingleResponse, error) {
	ids := make([]CertID, len(serials))
	for i, serial := range serials {
		ids[i] = NewCertID(issuer, serial)
	}
	resp, err := c.FetchContext(ctx, responderURL, &Request{IDs: ids})
	if err != nil {
		return nil, err
	}
	out := make([]SingleResponse, len(ids))
	if err = check(resp, issuer, ids, now, out); err != nil && err != ErrNotCurrent {
		return nil, err
	}
	return out, err
}

// Fetch submits the request and parses the response without checking
// it; callers wanting the check use CheckContext.
func (c *Client) Fetch(responderURL string, req *Request) (*Response, error) {
	return c.FetchContext(context.Background(), responderURL, req)
}

// FetchContext is Fetch with a caller-supplied context. Transport
// failures return *TransportError, non-200 statuses *StatusError; both
// are distinguishable with errors.As for availability attribution.
func (c *Client) FetchContext(ctx context.Context, responderURL string, req *Request) (*Response, error) {
	reqDER := req.Marshal()
	var httpReq *http.Request
	var err error
	encoded := base64.StdEncoding.EncodeToString(reqDER)
	// RFC 5019 §5: GET only when the encoded request stays under 255
	// bytes (cache- and proxy-friendliness); larger requests use POST.
	usePOST := c.Transport == TransportPOST || len(encoded) > 255
	if usePOST {
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost, responderURL, bytes.NewReader(reqDER))
		if httpReq != nil {
			httpReq.Header.Set("Content-Type", "application/ocsp-request")
		}
	} else {
		u := strings.TrimSuffix(responderURL, "/") + "/" + url.PathEscape(encoded)
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, &TransportError{Err: err}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: httpResp.StatusCode}
	}
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, maxResponseBytes))
	if err != nil {
		return nil, &TransportError{Err: fmt.Errorf("read response: %w", err)}
	}
	return ParseResponse(body)
}
