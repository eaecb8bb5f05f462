// Package crawler implements the study's revocation-data collector: a
// daily crawl that downloads every known CRL (2,800 distinct URLs in the
// paper, §3.2) and records per-day snapshots, plus targeted OCSP queries
// for the 642 certificates that carry only an OCSP responder.
//
// The crawler is transport-agnostic: point it at a simnet client and the
// virtual clock for simulation, or at http.DefaultClient for the real
// internet. It degrades gracefully against an unreliable substrate:
// failed fetches are retried with exponential backoff and deterministic
// jitter, each attempt carries a timeout budget, failures are classified
// by layer (transport, HTTP status, read, parse, verify), and — when
// enabled — the last good copy of a CRL is served stale rather than
// dropping the URL from the snapshot.
package crawler

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crl"
	"repro/internal/faultnet"
	"repro/internal/ocsp"
	"repro/internal/x509x"
)

// FailureClass attributes a fetch failure to the layer that produced it,
// so availability experiments can distinguish "the responder is down"
// from "the responder answered garbage" (§5).
type FailureClass int

// Failure classes.
const (
	// ClassTransport: the HTTP exchange itself failed (connection error,
	// timeout, DNS).
	ClassTransport FailureClass = iota
	// ClassHTTPStatus: the server answered with a non-200 status.
	ClassHTTPStatus
	// ClassRead: the body ended early or could not be read.
	ClassRead
	// ClassParse: the body was not a parseable CRL (or OCSP response).
	ClassParse
	// ClassVerify: the CRL parsed but its signature did not verify
	// against the pinned issuer.
	ClassVerify
)

func (c FailureClass) String() string {
	switch c {
	case ClassTransport:
		return "transport"
	case ClassHTTPStatus:
		return "http-status"
	case ClassRead:
		return "read"
	case ClassParse:
		return "parse"
	case ClassVerify:
		return "verify"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// FetchError is a classified fetch failure.
type FetchError struct {
	URL   string
	Class FailureClass
	// Code is the HTTP status for ClassHTTPStatus failures, 0 otherwise.
	Code int
	Err  error
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("crawler: %s: %s: %v", e.URL, e.Class, e.Err)
}

func (e *FetchError) Unwrap() error { return e.Err }

// FetchStats aggregates the crawler's degradation accounting. All fields
// are cumulative across crawls; read a copy via Crawler.Stats.
type FetchStats struct {
	// Attempts counts individual CRL fetch attempts (including retries).
	Attempts int64
	// Retries counts attempts after the first for a given URL and crawl.
	Retries int64
	// Successes counts fetches that produced a verified CRL.
	Successes int64
	// GaveUp counts fetches that exhausted their retry budget.
	GaveUp int64
	// StaleServed counts crawl slots filled from the last good copy
	// after a fetch gave up (ServeStale).
	StaleServed int64
	// BackoffTotal is the cumulative (virtual) backoff delay scheduled
	// between retries.
	BackoffTotal time.Duration

	// Per-class CRL failure counts (each failed attempt counts once).
	TransportErrors int64
	HTTPErrors      int64
	ReadErrors      int64
	ParseErrors     int64
	VerifyErrors    int64

	// OCSP-only check accounting. Transport failures ("the responder is
	// unreachable") are attributed separately from well-formed OCSP
	// error responses ("the responder is up but declined") and HTTP
	// front-end errors.
	OCSPAttempts        int64
	OCSPRetries         int64
	OCSPTransportErrors int64
	OCSPHTTPErrors      int64
	OCSPResponderErrors int64
	OCSPOtherErrors     int64
}

// Snapshot is the outcome of one crawl day.
type Snapshot struct {
	Day time.Time
	// CRLs maps distribution-point URL to the parsed CRL.
	CRLs map[string]*crl.CRL
	// Stale marks URLs whose CRL slot was filled from the last good
	// fetch of an earlier crawl because every attempt this crawl failed.
	Stale map[string]bool
	// Failures maps URL to the error that prevented its download.
	Failures map[string]error
	// Bytes is the total body size downloaded.
	Bytes int64
}

// maxCRLBytes caps a single CRL download (the paper saw CRLs up to
// 76 MB).
const maxCRLBytes = 128 << 20

// Crawler downloads revocation data.
type Crawler struct {
	// Client performs the HTTP requests; http.DefaultClient when nil.
	Client *http.Client
	// Now supplies crawl timestamps; time.Now when nil.
	Now func() time.Time
	// Verify, when set, maps a CRL URL to the issuer certificate whose
	// signature the CRL must carry; unverifiable CRLs count as failures.
	Verify map[string]*x509x.Certificate
	// Parallelism bounds concurrent downloads (the paper's crawler hit
	// 2,800 CRLs per day). 1 when zero or negative.
	Parallelism int
	// OCSPBatchSize bounds how many certificates ride in one OCSP request
	// on the OCSP-only check path — RFC 6960 allows a request to carry
	// multiple Request entries, and batching amortizes the HTTP and
	// signature-verification round trip. 0 or 1 means one request per
	// certificate.
	OCSPBatchSize int

	// Timeout bounds each fetch attempt. It is applied both as a real
	// context deadline and as a faultnet virtual-time budget, so a hung
	// responder costs the crawl at most Timeout (and, under simulation,
	// no real time at all). 0 means unbounded.
	Timeout time.Duration
	// Retries is how many additional attempts follow a retryable
	// failure (transport, read, 5xx, parse, verify). 0 means one
	// attempt. Permanent failures (HTTP 4xx) are not retried.
	Retries int
	// Backoff is the base delay before the first retry; it doubles per
	// retry with deterministic per-URL jitter. Default 100 ms. The delay
	// is recorded in FetchStats (and slept through Sleep when set).
	Backoff time.Duration
	// Sleep, when set, is called with each backoff delay. Leave nil in
	// simulations: backoff then costs virtual bookkeeping only.
	Sleep func(time.Duration)
	// ServeStale fills a failed URL's snapshot slot with the last good
	// parse from an earlier crawl, marking it in Snapshot.Stale. This
	// mirrors clients that keep using a cached CRL until its
	// nextUpdate passes.
	ServeStale bool

	// cacheMu guards the content-addressed parse cache: most CRLs are
	// unchanged from one daily crawl to the next, so an identical body
	// is returned as the identical *crl.CRL without re-parsing or
	// re-verifying. Pointer identity across snapshots is part of the
	// contract — downstream delta ingestion relies on it.
	cacheMu    sync.Mutex
	parseCache map[[sha256.Size]byte]*parsedCRL
	// lastGood maps URL to its most recent successfully fetched CRL:
	// the copy ServeStale falls back to (parse-cache pointer identity
	// preserved) and the size longestFirst orders the next crawl by.
	lastGood map[string]*crl.CRL
	// requests maps URL to the GET request built for it once; every
	// attempt sends a shallow copy carrying that attempt's context, so
	// the same few hundred URL strings are not parsed again each day.
	requests map[string]*http.Request
	// ParseCacheHits counts fetches served from the parse cache. It is
	// updated under the crawler's internal lock; read it only between
	// crawls.
	ParseCacheHits int64

	statsMu sync.Mutex
	stats   FetchStats
}

// parsedCRL is one parse-cache slot. verifiedBy records the issuer
// certificate the body's signature was last checked against, so a cached
// body is never reused to satisfy a stricter verification requirement.
type parsedCRL struct {
	crl        *crl.CRL
	verifiedBy *x509x.Certificate
}

func (c *Crawler) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

func (c *Crawler) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Stats returns a copy of the crawler's cumulative degradation stats.
func (c *Crawler) Stats() FetchStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

func (c *Crawler) bump(f func(*FetchStats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// attemptCtx returns the per-attempt context: a real deadline plus a
// faultnet virtual-time budget when Timeout is set.
func (c *Crawler) attemptCtx() (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if c.Timeout <= 0 {
		return ctx, func() {}
	}
	ctx = faultnet.WithBudget(ctx, c.Timeout)
	return context.WithTimeout(ctx, c.Timeout)
}

// backoffDelay is the deterministic delay before retry number n (n ≥ 1)
// of url: Backoff·2^(n-1) plus up to one Backoff of per-(url, n) jitter.
func (c *Crawler) backoffDelay(url string, n int) time.Duration {
	base := c.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << uint(n-1)
	h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", url, n)))
	jitter := time.Duration(binary.BigEndian.Uint64(h[:8]) % uint64(base))
	return d + jitter
}

func (c *Crawler) backOff(url string, n int) {
	d := c.backoffDelay(url, n)
	c.bump(func(s *FetchStats) {
		s.Retries++
		s.BackoffTotal += d
	})
	if c.Sleep != nil {
		c.Sleep(d)
	}
}

// crawlChunk is how many URLs a worker claims from the crawl cursor at a
// time: enough that workers do not meet on the cursor for every fetch,
// few enough that the largest lists, which lead the order, are spread
// over the workers.
const crawlChunk = 4

// fetched is one URL's outcome within a crawl.
type fetched struct {
	crl   *crl.CRL
	bytes int64
	err   error
}

// CrawlCRLs downloads and parses every URL, returning one snapshot.
//
// With Parallelism above one the workers take the URLs longest first, by
// the size of each URL's last good body, so the one list that takes as
// long as hundreds of others starts at once and not behind them. Every
// outcome lands in the slot of its URL's index and the snapshot is
// assembled from the slots in input order once all workers are done, so
// neither the order of the fetches nor their division among workers can
// show in it.
func (c *Crawler) CrawlCRLs(urls []string) *Snapshot {
	snap := &Snapshot{
		Day:      c.now(),
		CRLs:     make(map[string]*crl.CRL, len(urls)),
		Stale:    make(map[string]bool),
		Failures: make(map[string]error),
	}
	results := make([]fetched, len(urls))
	if workers := c.Parallelism; workers <= 1 {
		for i, u := range urls {
			results[i] = c.fetchOne(u)
		}
	} else {
		order := c.longestFirst(urls)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					end := int(cursor.Add(crawlChunk))
					start := end - crawlChunk
					if start >= len(order) {
						return
					}
					for _, i := range order[start:min(end, len(order))] {
						results[i] = c.fetchOne(urls[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	for i, u := range urls {
		r := results[i]
		snap.Bytes += r.bytes
		if r.err == nil {
			snap.CRLs[u] = r.crl
			continue
		}
		if c.ServeStale {
			c.cacheMu.Lock()
			stale := c.lastGood[u]
			c.cacheMu.Unlock()
			if stale != nil {
				snap.CRLs[u] = stale
				snap.Stale[u] = true
				c.bump(func(s *FetchStats) { s.StaleServed++ })
				continue
			}
		}
		snap.Failures[u] = r.err
	}
	return snap
}

// longestFirst returns the indices of urls ordered by the size of each
// URL's last good body, largest first, ties (and URLs never fetched) in
// input order.
func (c *Crawler) longestFirst(urls []string) []int {
	order := make([]int, len(urls))
	size := make([]int, len(urls))
	c.cacheMu.Lock()
	for i, u := range urls {
		order[i] = i
		if good := c.lastGood[u]; good != nil {
			size[i] = len(good.Raw)
		}
	}
	c.cacheMu.Unlock()
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[b], size[a]) })
	return order
}

// fetchOne downloads url with the retry/backoff policy, returning the
// parsed CRL (success updates the stale-serving copy) or the final
// classified error once the retry budget is spent.
func (c *Crawler) fetchOne(u string) fetched {
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var total int64
	var last *FetchError
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.backOff(u, i)
		}
		c.bump(func(s *FetchStats) { s.Attempts++ })
		parsed, n, ferr := c.fetchAttempt(u)
		total += n
		if ferr == nil {
			c.bump(func(s *FetchStats) { s.Successes++ })
			c.cacheMu.Lock()
			if c.lastGood == nil {
				c.lastGood = make(map[string]*crl.CRL)
			}
			c.lastGood[u] = parsed
			c.cacheMu.Unlock()
			return fetched{crl: parsed, bytes: total}
		}
		last = ferr
		c.bump(func(s *FetchStats) {
			switch ferr.Class {
			case ClassTransport:
				s.TransportErrors++
			case ClassHTTPStatus:
				s.HTTPErrors++
			case ClassRead:
				s.ReadErrors++
			case ClassParse:
				s.ParseErrors++
			case ClassVerify:
				s.VerifyErrors++
			}
		})
		if !retryableClass(ferr) {
			break
		}
	}
	c.bump(func(s *FetchStats) { s.GaveUp++ })
	return fetched{bytes: total, err: last}
}

// retryableClass reports whether another attempt could plausibly
// succeed. Transport, read, parse, and verify failures are transient in
// an unreliable-network model (corruption in flight); HTTP failures are
// retried only for 5xx — a 404 is authoritative.
func retryableClass(e *FetchError) bool {
	if e.Class != ClassHTTPStatus {
		return true
	}
	return e.Code >= 500
}

// request returns the GET request for u, built on first use.
func (c *Crawler) request(u string) (*http.Request, error) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if req := c.requests[u]; req != nil {
		return req, nil
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if c.requests == nil {
		c.requests = make(map[string]*http.Request)
	}
	c.requests[u] = req
	return req, nil
}

// fetchAttempt performs one download attempt and classifies its failure.
func (c *Crawler) fetchAttempt(u string) (*crl.CRL, int64, *FetchError) {
	req, err := c.request(u)
	if err != nil {
		return nil, 0, &FetchError{URL: u, Class: ClassTransport, Err: err}
	}
	ctx, cancel := c.attemptCtx()
	defer cancel()
	resp, err := c.client().Do(req.WithContext(ctx))
	if err != nil {
		return nil, 0, &FetchError{URL: u, Class: ClassTransport, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, &FetchError{URL: u, Class: ClassHTTPStatus, Code: resp.StatusCode, Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	var body []byte
	if n := resp.ContentLength; n > 0 && n <= maxCRLBytes {
		// Presize the read: CRLs run to tens of megabytes, and letting
		// io.ReadAll grow its buffer doubles the copy traffic.
		body = make([]byte, n)
		if m, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, int64(m), &FetchError{URL: u, Class: ClassRead, Err: err}
		}
	} else if body, err = io.ReadAll(io.LimitReader(resp.Body, maxCRLBytes)); err != nil {
		return nil, int64(len(body)), &FetchError{URL: u, Class: ClassRead, Err: err}
	}
	issuer := c.Verify[u]
	sum := sha256.Sum256(body)
	c.cacheMu.Lock()
	if hit, ok := c.parseCache[sum]; ok && (issuer == nil || hit.verifiedBy == issuer) {
		c.ParseCacheHits++
		c.cacheMu.Unlock()
		return hit.crl, int64(len(body)), nil
	}
	c.cacheMu.Unlock()
	parsed, err := crl.Parse(body)
	if err != nil {
		return nil, int64(len(body)), &FetchError{URL: u, Class: ClassParse, Err: err}
	}
	if issuer != nil {
		if err := parsed.VerifySignature(issuer); err != nil {
			return nil, int64(len(body)), &FetchError{URL: u, Class: ClassVerify, Err: err}
		}
	}
	c.cacheMu.Lock()
	if c.parseCache == nil {
		c.parseCache = make(map[[sha256.Size]byte]*parsedCRL)
	}
	c.parseCache[sum] = &parsedCRL{crl: parsed, verifiedBy: issuer}
	c.cacheMu.Unlock()
	return parsed, int64(len(body)), nil
}

// OCSPTarget identifies one certificate to check by OCSP (used for
// certificates with no CRL distribution point, §3.2).
type OCSPTarget struct {
	ResponderURL string
	Issuer       *x509x.Certificate
	Serial       *big.Int
}

// OCSPResult is the outcome of one OCSP-only check.
type OCSPResult struct {
	Target   OCSPTarget
	Response ocsp.SingleResponse
	Err      error
}

// checkOCSPBatch performs one batched OCSP exchange with the retry
// policy, attributing each failed attempt to the layer that produced it.
func (c *Crawler) checkOCSPBatch(client *ocsp.Client, url string, issuer *x509x.Certificate, serials []*big.Int) ([]ocsp.SingleResponse, error) {
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.bump(func(s *FetchStats) { s.OCSPRetries++ })
			d := c.backoffDelay(url, i)
			c.bump(func(s *FetchStats) { s.BackoffTotal += d })
			if c.Sleep != nil {
				c.Sleep(d)
			}
		}
		c.bump(func(s *FetchStats) { s.OCSPAttempts++ })
		ctx, cancel := c.attemptCtx()
		srs, err := client.CheckBatchContext(ctx, url, issuer, serials)
		cancel()
		if err == nil {
			return srs, nil
		}
		lastErr = err
		var (
			te *ocsp.TransportError
			se *ocsp.StatusError
			re *ocsp.ResponderError
		)
		retry := true
		switch {
		case errors.As(err, &te):
			c.bump(func(s *FetchStats) { s.OCSPTransportErrors++ })
		case errors.As(err, &se):
			c.bump(func(s *FetchStats) { s.OCSPHTTPErrors++ })
			retry = se.Code >= 500
		case errors.As(err, &re):
			// The responder answered OCSP, just not usefully — this is
			// an application-layer refusal, not an availability failure.
			c.bump(func(s *FetchStats) { s.OCSPResponderErrors++ })
			retry = re.Status == ocsp.RespTryLater || re.Status == ocsp.RespInternalError
		default:
			// Parse or signature failures: possibly in-flight
			// corruption, worth retrying.
			c.bump(func(s *FetchStats) { s.OCSPOtherErrors++ })
		}
		if !retry {
			break
		}
	}
	return nil, lastErr
}

// CheckOCSPOnly queries the responder for each OCSP-only certificate.
// With OCSPBatchSize > 1, targets sharing a responder and issuer are
// grouped into multi-certificate requests. Queries run with the
// configured parallelism across responders, but batches for the same
// responder URL run sequentially in input order: the fault injector's
// schedule is a pure function of (endpoint, day, attempt number), so
// letting same-endpoint requests race for attempt numbers would make
// which request draws an injected fault scheduling-dependent. Results
// are returned in input order regardless.
func (c *Crawler) CheckOCSPOnly(targets []OCSPTarget) []OCSPResult {
	client := &ocsp.Client{HTTP: c.client()}
	out := make([]OCSPResult, len(targets))
	batches := c.ocspBatches(targets)
	check := func(batch []int) {
		first := targets[batch[0]]
		serials := make([]*big.Int, len(batch))
		for j, i := range batch {
			serials[j] = targets[i].Serial
		}
		srs, err := c.checkOCSPBatch(client, first.ResponderURL, first.Issuer, serials)
		for j, i := range batch {
			if err != nil {
				out[i] = OCSPResult{Target: targets[i], Err: err}
			} else {
				out[i] = OCSPResult{Target: targets[i], Response: srs[j]}
			}
		}
	}
	// Group batch indices by responder URL, preserving first-appearance
	// order within each group.
	var groups [][][]int
	groupOf := make(map[string]int)
	for _, batch := range batches {
		url := targets[batch[0]].ResponderURL
		gi, ok := groupOf[url]
		if !ok {
			groups = append(groups, nil)
			gi = len(groups) - 1
			groupOf[url] = gi
		}
		groups[gi] = append(groups[gi], batch)
	}
	checkGroup := func(group [][]int) {
		for _, batch := range group {
			check(batch)
		}
	}
	workers := c.Parallelism
	if workers <= 1 || len(groups) <= 1 {
		for _, group := range groups {
			checkGroup(group)
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan [][]int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				checkGroup(group)
			}
		}()
	}
	for _, group := range groups {
		work <- group
	}
	close(work)
	wg.Wait()
	return out
}

// ocspBatches groups target indices into per-(responder, issuer) batches
// of at most OCSPBatchSize, preserving first-appearance order within each
// batch so results map back by index.
func (c *Crawler) ocspBatches(targets []OCSPTarget) [][]int {
	size := c.OCSPBatchSize
	if size <= 1 {
		batches := make([][]int, len(targets))
		for i := range targets {
			batches[i] = []int{i}
		}
		return batches
	}
	type groupKey struct {
		url    string
		issuer *x509x.Certificate
	}
	var batches [][]int
	open := make(map[groupKey]int) // group → index of its still-filling batch
	for i, t := range targets {
		k := groupKey{t.ResponderURL, t.Issuer}
		bi, ok := open[k]
		if !ok || len(batches[bi]) >= size {
			batches = append(batches, make([]int, 0, size))
			bi = len(batches) - 1
			open[k] = bi
		}
		batches[bi] = append(batches[bi], i)
	}
	return batches
}

// Archive stores crawl snapshots in day order and answers the questions
// the longitudinal analyses ask of them.
type Archive struct {
	mu    sync.Mutex
	snaps []*Snapshot
}

// NewArchive returns an empty archive.
func NewArchive() *Archive { return &Archive{} }

// Add appends a snapshot; snapshots must arrive in chronological order.
func (a *Archive) Add(s *Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.snaps); n > 0 && s.Day.Before(a.snaps[n-1].Day) {
		panic("crawler: snapshots must be added in order")
	}
	a.snaps = append(a.snaps, s)
}

// Len returns the number of stored snapshots.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.snaps)
}

// Snapshots returns the stored snapshots in day order.
func (a *Archive) Snapshots() []*Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Snapshot, len(a.snaps))
	copy(out, a.snaps)
	return out
}

// At returns the most recent snapshot at or before t.
func (a *Archive) At(t time.Time) (*Snapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.snaps), func(i int) bool { return a.snaps[i].Day.After(t) })
	if i == 0 {
		return nil, false
	}
	return a.snaps[i-1], true
}

// Latest returns the most recent snapshot.
func (a *Archive) Latest() (*Snapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.snaps) == 0 {
		return nil, false
	}
	return a.snaps[len(a.snaps)-1], true
}
