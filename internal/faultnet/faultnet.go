// Package faultnet is a deterministic, seed-driven fault-injection layer
// for the simulated internet. It wraps any http.RoundTripper — typically
// simnet.Network or simnet.CDN — and injects the failure modes the paper
// measures in §5–§6: connection errors, unresponsive servers, HTTP 5xx,
// added latency, flapping availability windows, truncated bodies, and
// byte-corrupted DER.
//
// Every injection decision is a pure function of (seed, fault kind,
// request URL, virtual day, attempt number), so a run is exactly
// replayable from its seed: the same crawl against the same world sees
// the same faults in the same places, regardless of goroutine scheduling.
// The injector never sleeps real time; latency interacts with the
// caller's virtual-time budget (WithBudget) instead, which keeps chaos
// runs fast and deterministic.
package faultnet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault enumerates the injectable fault kinds. Each kind is individually
// toggleable through its Config probability (or forced per-host with
// ForceFault).
type Fault int

// Fault kinds.
const (
	// FaultNone means no fault was injected.
	FaultNone Fault = iota
	// FaultConnError simulates a connection-level failure (refused,
	// reset, DNS error): the request fails immediately, no bytes move.
	FaultConnError
	// FaultHang simulates a server that accepts the connection and never
	// answers; the client observes its own timeout.
	FaultHang
	// FaultHTTP500 answers with a synthesized HTTP 500 and empty body
	// instead of consulting the wrapped transport.
	FaultHTTP500
	// FaultLatency adds an exponentially distributed delay; if the delay
	// exceeds the caller's budget the request times out.
	FaultLatency
	// FaultOutage is a scheduled availability window: the host is down
	// for a deterministic contiguous slice of every period, sized so the
	// host is up Availability of the time.
	FaultOutage
	// FaultTruncate cuts the response body short while preserving the
	// original Content-Length, so readers observe an unexpected EOF
	// mid-transfer.
	FaultTruncate
	// FaultCorrupt flips bytes of the response body in place (length
	// preserved), modelling bit rot and middlebox damage to DER.
	FaultCorrupt
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultConnError:
		return "conn-error"
	case FaultHang:
		return "hang"
	case FaultHTTP500:
		return "http-500"
	case FaultLatency:
		return "latency"
	case FaultOutage:
		return "outage"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	default:
		return "fault(" + strconv.Itoa(int(f)) + ")"
	}
}

// Error is the error the injector returns for request-level faults. It
// implements net.Error's Timeout so callers distinguish "timed out"
// (hang, latency over budget) from "connection failed" (conn error,
// outage) the same way they would for a real transport.
type Error struct {
	Fault     Fault
	Host      string
	IsTimeout bool
}

func (e *Error) Error() string {
	if e.IsTimeout {
		return fmt.Sprintf("faultnet: host %q: %v (timeout)", e.Host, e.Fault)
	}
	return fmt.Sprintf("faultnet: host %q: %v", e.Host, e.Fault)
}

// Timeout reports whether the fault manifested as a client timeout.
func (e *Error) Timeout() bool { return e.IsTimeout }

// Temporary reports true: every injected fault is transient by
// construction (retries may succeed).
func (e *Error) Temporary() bool { return true }

// Config declares which faults an Injector injects and how often. Each
// probability is evaluated independently per request attempt; zero
// disables that fault kind.
type Config struct {
	// Seed drives every injection decision. Two injectors with equal
	// configs produce identical fault schedules.
	Seed uint64
	// Now supplies virtual time for outage schedules and day-keyed
	// decisions; time.Now when nil.
	Now func() time.Time

	// ConnErrorProb is the probability a request fails at the
	// connection level.
	ConnErrorProb float64
	// HangProb is the probability the server never answers (client
	// timeout).
	HangProb float64
	// HTTP500Prob is the probability of a synthesized HTTP 500.
	HTTP500Prob float64
	// TruncateProb is the probability the response body is cut short.
	TruncateProb float64
	// CorruptProb is the probability response bytes are flipped.
	CorruptProb float64
	// LatencyMean, when positive, adds an exponentially distributed
	// delay with this mean to every request; requests whose delay
	// exceeds the caller's budget time out.
	LatencyMean time.Duration

	// Availability, when in (0, 1), puts every fault-scoped host on a
	// flapping schedule: per OutagePeriod the host is down for a
	// contiguous (1-Availability) slice at a seed-determined offset.
	// 0 or >= 1 disables the outage model.
	Availability float64
	// OutagePeriod is the schedule period (default 1h of virtual time).
	OutagePeriod time.Duration

	// Hosts, when non-empty, restricts fault injection to these
	// hostnames; other hosts pass through untouched. Empty means all
	// hosts are in scope.
	Hosts []string
}

// Stats summarizes what an injector did. Injected counts events by
// fault kind; Digest is an order-independent XOR of per-event hashes, so
// two runs injected a byte-identical fault schedule iff their digests
// (and counts) match — even when requests raced.
type Stats struct {
	Requests int64
	Injected map[Fault]int64
	// Latency is the total injected (virtual) delay that stayed within
	// budget.
	Latency time.Duration
	// Digest fingerprints the exact set of injected fault events.
	Digest uint64
}

// Kinds returns how many distinct fault kinds were injected.
func (s Stats) Kinds() int {
	n := 0
	for _, c := range s.Injected {
		if c > 0 {
			n++
		}
	}
	return n
}

// Injector wraps a transport with deterministic fault injection.
type Injector struct {
	next http.RoundTripper
	cfg  Config

	mu      sync.Mutex
	enabled bool
	scope   map[string]bool
	forced  map[string]Fault
	attempt map[attemptKey]uint64
	stats   Stats
}

type attemptKey struct {
	url string
	day int64
}

// New wraps next with fault injection per cfg. The injector starts
// enabled.
func New(next http.RoundTripper, cfg Config) *Injector {
	if cfg.OutagePeriod <= 0 {
		cfg.OutagePeriod = time.Hour
	}
	inj := &Injector{
		next:    next,
		cfg:     cfg,
		enabled: true,
		forced:  make(map[string]Fault),
		attempt: make(map[attemptKey]uint64),
	}
	if len(cfg.Hosts) > 0 {
		inj.scope = make(map[string]bool, len(cfg.Hosts))
		for _, h := range cfg.Hosts {
			inj.scope[h] = true
		}
	}
	inj.stats.Injected = make(map[Fault]int64)
	return inj
}

// Client returns an *http.Client routed through the injector.
func (in *Injector) Client() *http.Client {
	return &http.Client{Transport: in}
}

// SetEnabled turns all probabilistic and scheduled injection on or off
// (forced faults are also suspended while disabled). Attempt counters
// keep advancing so re-enabling stays deterministic relative to the
// request sequence.
func (in *Injector) SetEnabled(v bool) {
	in.mu.Lock()
	in.enabled = v
	in.mu.Unlock()
}

// ForceFault pins host to always fail with the given fault, overriding
// the probabilistic rolls. FaultNone (or ClearFault) removes the pin.
func (in *Injector) ForceFault(host string, f Fault) {
	in.mu.Lock()
	if f == FaultNone {
		delete(in.forced, host)
	} else {
		in.forced[host] = f
	}
	in.mu.Unlock()
}

// ClearFault removes a forced fault from host.
func (in *Injector) ClearFault(host string) { in.ForceFault(host, FaultNone) }

// Stats returns a snapshot of the injector's accounting.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.stats
	out.Injected = make(map[Fault]int64, len(in.stats.Injected))
	for k, v := range in.stats.Injected {
		out.Injected[k] = v
	}
	return out
}

func (in *Injector) now() time.Time {
	if in.cfg.Now != nil {
		return in.cfg.Now()
	}
	return time.Now()
}

// DownAt reports whether host's availability schedule has it down at t.
// The schedule is deterministic: each OutagePeriod contains one
// contiguous down-window of length (1-Availability)·period at an offset
// mixed from (seed, host, period index).
func (in *Injector) DownAt(host string, t time.Time) bool {
	a := in.cfg.Availability
	if a <= 0 || a >= 1 {
		return false
	}
	period := int64(in.cfg.OutagePeriod)
	down := int64(float64(period) * (1 - a))
	if down <= 0 {
		return false
	}
	abs := t.UnixNano()
	idx := abs / period
	if abs < 0 { // floor division for pre-epoch times
		idx = (abs - (period - 1)) / period
	}
	in.mu.Lock()
	seed := in.cfg.Seed
	in.mu.Unlock()
	span := period - down
	offset := int64(0)
	if span > 0 {
		offset = int64(mix(seed, uint64(FaultOutage), fnv64a(host), uint64(idx), 0) % uint64(span+1))
	}
	pos := abs - idx*period
	return pos >= offset && pos < offset+down
}

// dayIndex keys decisions by virtual day so the same URL re-crawled on a
// later day rolls fresh faults.
// decisionKey canonicalizes a request URL for fault-schedule purposes.
// Path segments longer than 64 bytes are collapsed to "*": RFC 5019 GET
// requests carry the base64 OCSP request — which embeds issuer key hashes
// and serial numbers — as a path segment, and keying decisions on those
// bytes would make the fault schedule depend on freshly generated key
// material instead of only on (seed, endpoint, day, attempt). Short
// segments (CRL shard names, responder mount points) pass through, so
// distinct resources on one host still draw independent schedules.
func decisionKey(u *url.URL) string {
	path := u.EscapedPath()
	if len(path) > 64 && strings.Contains(path, "/") {
		segs := strings.Split(path, "/")
		for i, s := range segs {
			if len(s) > 64 {
				segs[i] = "*"
			}
		}
		path = strings.Join(segs, "/")
	}
	return u.Scheme + "://" + u.Host + path
}

func dayIndex(t time.Time) int64 {
	const day = 24 * 60 * 60
	u := t.Unix()
	if u >= 0 {
		return u / day
	}
	return (u - (day - 1)) / day
}

// roll returns a deterministic uniform sample in [0,1) for one fault
// decision.
func (in *Injector) roll(kind Fault, url string, day int64, attempt uint64) (float64, uint64) {
	h := mix(in.cfg.Seed, uint64(kind), fnv64a(url), uint64(day), attempt)
	return float64(h>>11) / (1 << 53), h
}

func (in *Injector) record(f Fault, eventHash uint64) {
	in.mu.Lock()
	in.stats.Injected[f]++
	in.stats.Digest ^= eventHash
	in.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	host := req.URL.Hostname()
	u := decisionKey(req.URL)
	now := in.now()
	day := dayIndex(now)

	in.mu.Lock()
	in.stats.Requests++
	enabled := in.enabled
	inScope := in.scope == nil || in.scope[host]
	forced := in.forced[host]
	key := attemptKey{u, day}
	attempt := in.attempt[key]
	in.attempt[key] = attempt + 1
	in.mu.Unlock()

	if !enabled || !inScope {
		return in.next.RoundTrip(req)
	}

	if forced != FaultNone {
		return in.apply(forced, req, ctx, host, u, day, attempt, 0)
	}

	if in.DownAt(host, now) {
		_, h := in.roll(FaultOutage, u, day, attempt)
		in.record(FaultOutage, h)
		return nil, &Error{Fault: FaultOutage, Host: host}
	}

	// Request-level rolls, in fixed order so a seed maps to one schedule.
	for _, kind := range []Fault{FaultConnError, FaultHang, FaultHTTP500} {
		p := in.prob(kind)
		if p <= 0 {
			continue
		}
		r, h := in.roll(kind, u, day, attempt)
		if r < p {
			return in.apply(kind, req, ctx, host, u, day, attempt, h)
		}
	}

	if in.cfg.LatencyMean > 0 {
		r, h := in.roll(FaultLatency, u, day, attempt)
		// Inverse-CDF exponential sample; clamp r away from 1.
		if r > 0.999999 {
			r = 0.999999
		}
		d := time.Duration(-float64(in.cfg.LatencyMean) * math.Log(1-r))
		if budget, ok := budgetFrom(ctx); ok && d >= budget {
			in.record(FaultLatency, h)
			return nil, &Error{Fault: FaultLatency, Host: host, IsTimeout: true}
		}
		in.mu.Lock()
		in.stats.Latency += d
		in.mu.Unlock()
	}

	resp, err := in.next.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}

	// Response-level rolls mutate the body in flight.
	for _, kind := range []Fault{FaultTruncate, FaultCorrupt} {
		p := in.prob(kind)
		if p <= 0 {
			continue
		}
		r, h := in.roll(kind, u, day, attempt)
		if r < p {
			if mangled := in.mangle(kind, resp, h); mangled {
				in.record(kind, h)
			}
			break // at most one body fault per response
		}
	}
	return resp, nil
}

func (in *Injector) prob(kind Fault) float64 {
	switch kind {
	case FaultConnError:
		return in.cfg.ConnErrorProb
	case FaultHang:
		return in.cfg.HangProb
	case FaultHTTP500:
		return in.cfg.HTTP500Prob
	case FaultTruncate:
		return in.cfg.TruncateProb
	case FaultCorrupt:
		return in.cfg.CorruptProb
	default:
		return 0
	}
}

// apply executes one request-level fault. eventHash 0 (forced faults)
// derives a hash so forced events still land in the digest.
func (in *Injector) apply(kind Fault, req *http.Request, ctx context.Context, host, u string, day int64, attempt uint64, eventHash uint64) (*http.Response, error) {
	if eventHash == 0 {
		_, eventHash = in.roll(kind, u, day, attempt)
	}
	switch kind {
	case FaultConnError, FaultOutage:
		in.record(kind, eventHash)
		return nil, &Error{Fault: kind, Host: host}
	case FaultHang:
		in.record(kind, eventHash)
		if _, ok := budgetFrom(ctx); ok {
			// Virtual-time callers: the hang consumes the whole budget.
			return nil, &Error{Fault: FaultHang, Host: host, IsTimeout: true}
		}
		if ctx.Done() != nil {
			<-ctx.Done() // real-deadline callers: block until it fires
		}
		return nil, &Error{Fault: FaultHang, Host: host, IsTimeout: true}
	case FaultHTTP500:
		in.record(kind, eventHash)
		body := []byte("injected server error\n")
		return &http.Response{
			Status:        "500 " + http.StatusText(http.StatusInternalServerError),
			StatusCode:    http.StatusInternalServerError,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": {"text/plain"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case FaultTruncate, FaultCorrupt:
		resp, err := in.next.RoundTrip(req)
		if err != nil || resp == nil {
			return resp, err
		}
		if in.mangle(kind, resp, eventHash) {
			in.record(kind, eventHash)
		}
		return resp, nil
	default:
		return in.next.RoundTrip(req)
	}
}

// mangle rewrites resp's body for truncate/corrupt faults. Returns false
// when the body is too small to damage (the fault is skipped, not
// recorded).
func (in *Injector) mangle(kind Fault, resp *http.Response, h uint64) bool {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	restore := func(b []byte) {
		resp.Body = io.NopCloser(bytes.NewReader(b))
	}
	if err != nil || len(body) == 0 {
		restore(body)
		return false
	}
	switch kind {
	case FaultTruncate:
		if len(body) < 2 {
			restore(body)
			return false
		}
		// Cut at a deterministic point in [1, len-1]; Content-Length is
		// left at the original size so readers hit an unexpected EOF.
		cut := 1 + int(mix(h, 1, 0, 0, 0)%uint64(len(body)-1))
		resp.Body = io.NopCloser(bytes.NewReader(body[:cut]))
		return true
	case FaultCorrupt:
		// Break the leading DER tag, then flip up to 3 further
		// deterministic positions (length preserved). The tag flip makes
		// the client-visible consequence — a parse failure — independent
		// of the body's exact bytes: interior flips alone could land in
		// parse- or signature-ignored regions, and since signatures are
		// randomized, whether they did would vary from run to run and
		// wreck seed-replayability of everything downstream.
		body[0] ^= byte(0x01 + mix(h, 4, 0, 0, 0)%0xff)
		flips := int(mix(h, 2, 0, 0, 0) % 4)
		for i := 0; i < flips; i++ {
			pos := int(mix(h, 3, uint64(i), 0, 0) % uint64(len(body)))
			body[pos] ^= byte(0x01 + mix(h, 4, uint64(i+1), 0, 0)%0xff)
		}
		restore(body)
		return true
	}
	restore(body)
	return false
}

// --- virtual-time budgets -------------------------------------------------

type budgetKey struct{}

// WithBudget attaches a virtual-time timeout budget to ctx. Faultnet
// hangs and over-budget latency resolve instantly (as timeout errors)
// instead of sleeping, which keeps simulated crawls fast while modelling
// the client's real deadline.
func WithBudget(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, budgetKey{}, d)
}

// budgetFrom extracts the virtual-time budget from ctx.
func budgetFrom(ctx context.Context) (time.Duration, bool) {
	d, ok := ctx.Value(budgetKey{}).(time.Duration)
	return d, ok
}

// --- deterministic hashing ------------------------------------------------

// fnv64a hashes a string (FNV-1a, 64-bit).
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix folds five words into one via splitmix64 finalization rounds.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h += v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
