// Package simnet provides a simulated internet for the measurement
// pipeline: an in-process HTTP fabric that routes requests to registered
// virtual hosts (CA CRL servers, OCSP responders) without sockets, plus a
// latency/bandwidth cost model so experiments can account for what
// revocation checking would cost real clients (§5).
//
// The fabric plugs into net/http as a RoundTripper, so the CRL crawler and
// OCSP clients run the same code against the simulation as against the real
// network; only the http.Client differs.
package simnet

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/hist"
)

// CostModel converts transfer sizes into client-perceived latency.
type CostModel struct {
	// RTT is the per-request round-trip overhead (connection + request).
	RTT time.Duration
	// Bandwidth is the downstream rate in bytes per second.
	Bandwidth float64
	// OriginRTT, when positive, is the extra edge-to-origin round trip
	// charged to responses a CDN tier forwarded to its origin (those
	// stamped "X-Cache: MISS"). It is what makes CDN hit and origin
	// miss latencies separable in the modelled service-time histograms;
	// the default of zero preserves the pre-scenario cost accounting.
	OriginRTT time.Duration
}

// DefaultCostModel approximates a 2015 broadband client: 40 ms RTT and
// 10 Mbit/s downstream. OCSP lookups land near the ~250 ms the paper
// quotes once TCP and HTTP round trips are counted (§5.2).
var DefaultCostModel = CostModel{RTT: 40 * time.Millisecond, Bandwidth: 10e6 / 8}

// Cost returns the modelled time to fetch size bytes.
func (m CostModel) Cost(size int) time.Duration {
	if m.Bandwidth <= 0 {
		return m.RTT
	}
	return m.RTT + time.Duration(float64(size)/m.Bandwidth*float64(time.Second))
}

// HostError describes a failure to reach a virtual host.
type HostError struct {
	Host string
	Mode FailureMode
}

func (e *HostError) Error() string {
	return fmt.Sprintf("simnet: host %q: %v", e.Host, e.Mode)
}

// FailureMode enumerates the injectable failures, matching the test-suite
// dimensions of §6.1: non-existent DNS names, unresponsive servers, and
// HTTP errors (the last is produced by handlers, not the fabric).
type FailureMode int

// Failure modes.
const (
	// FailNone means the host is reachable.
	FailNone FailureMode = iota
	// FailNXDomain simulates a DNS name that does not resolve.
	FailNXDomain
	// FailUnresponsive simulates a host that accepts nothing (client
	// times out).
	FailUnresponsive
)

func (m FailureMode) String() string {
	switch m {
	case FailNone:
		return "reachable"
	case FailNXDomain:
		return "nxdomain"
	case FailUnresponsive:
		return "unresponsive"
	default:
		return fmt.Sprintf("failure(%d)", int(m))
	}
}

// Stats aggregates transfer accounting.
type Stats struct {
	Requests      int
	BytesReceived int64
	// ModelledTime is the total client-perceived latency under the
	// network's cost model.
	ModelledTime time.Duration
	// Latency summarizes the per-request modelled service time (the
	// same CostModel-derived virtual durations ModelledTime sums), so
	// callers see the distribution, not just the total. It is a pure
	// function of the byte stream: deterministic across runs and
	// worker counts.
	Latency hist.Summary
}

// route is what the fabric knows about one host name: who answers for it
// (nil when the name does not resolve) and how it is currently failing.
type route struct {
	handler http.Handler
	mode    FailureMode
}

// Network is the in-process HTTP fabric. It implements http.RoundTripper.
type Network struct {
	Cost CostModel

	// routes maps a host name to its route. RoundTrip reads it without a
	// lock; Register and SetFailure replace a host's route whole, under
	// mu, so a request sees a host's old route or its new one, never a
	// mix. (A sync.Map and not a copied table behind a pointer: the
	// browser test suite registers 1,464 hosts on one fabric.)
	routes sync.Map // string → route

	mu    sync.Mutex
	total Stats
	// lat is the all-hosts service-time histogram.
	lat hist.Recorder
	// streamSum is an order-independent sum of per-request hashes over
	// (method, host, status, CDN disposition) — deliberately excluding
	// response bytes, whose randomized ECDSA signatures make sizes
	// non-deterministic across runs. Two request streams with the same
	// multiset of requests sum identically no matter how they raced.
	streamSum uint64
}

// New returns an empty network with the default cost model.
func New() *Network {
	return &Network{Cost: DefaultCostModel}
}

// route returns what is known about host; the zero route when nothing is.
func (n *Network) route(host string) route {
	v, _ := n.routes.Load(host)
	r, _ := v.(route)
	return r
}

// editRoute replaces host's route with an edited copy.
func (n *Network) editRoute(host string, edit func(*route)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.route(host)
	edit(&r)
	n.routes.Store(host, r)
}

// Register attaches a handler to a virtual host name ("crl.godaddy.test").
// Registering a host again replaces its handler.
func (n *Network) Register(host string, h http.Handler) {
	n.editRoute(host, func(r *route) { r.handler = h })
}

// Handler returns the handler registered for host, or nil. The scenario
// engine uses it to expose a virtual host over a real localhost listener
// without re-plumbing the serving stack.
func (n *Network) Handler(host string) http.Handler {
	return n.route(host).handler
}

// Hosts returns every registered virtual host name, in no particular
// order.
func (n *Network) Hosts() []string {
	var hosts []string
	n.routes.Range(func(host, r any) bool {
		if r.(route).handler != nil {
			hosts = append(hosts, host.(string))
		}
		return true
	})
	return hosts
}

// SetFailure injects (or clears, with FailNone) a failure mode for host.
func (n *Network) SetFailure(host string, mode FailureMode) {
	n.editRoute(host, func(r *route) { r.mode = mode })
}

// Client returns an *http.Client routed through the fabric.
func (n *Network) Client() *http.Client {
	return &http.Client{Transport: n}
}

// RoundTrip implements http.RoundTripper by dispatching to the registered
// handler for the request's host. A request whose context is already
// done fails with the context's error, mirroring net/http's transport.
//
// The response's Header and Body are read-only views: a CDN hit hands over
// the header map and the body bytes the cache holds, shared with every
// other client of that entry, so a caller may read them (Body through
// Read or WriteTo, like any response body) but must not write to
// resp.Header or to a slice obtained from it. A caller that needs to
// change either copies first, as faultnet does with io.ReadAll.
func (n *Network) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	host := req.URL.Hostname()
	rt := n.route(host)
	if rt.mode != FailNone {
		return nil, &HostError{Host: host, Mode: rt.mode}
	}
	if rt.handler == nil {
		return nil, &HostError{Host: host, Mode: FailNXDomain}
	}

	x := &exchange{}
	rec := &x.rec
	rt.handler.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	if rec.header == nil {
		rec.header = http.Header{}
	}
	size := len(rec.body)
	x.resp = http.Response{
		Status:        statusLine(rec.code),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          x,
		ContentLength: int64(size),
		Request:       req,
	}

	cdn := headerValue(rec.header, "X-Cache") // set by the CDN tier, absent otherwise
	cost := n.Cost.Cost(size)
	if cdn == "MISS" {
		cost += n.Cost.OriginRTT
	}
	sum := requestHash(req.Method, host, rec.code, cdn)
	n.mu.Lock()
	n.total.Requests++
	n.total.BytesReceived += int64(size)
	n.total.ModelledTime += cost
	n.streamSum += sum
	n.lat.Record(cost)
	n.mu.Unlock()
	return &x.resp, nil
}

// statusLine is http.Response.Status for code, without building the
// string for the codes the serving stack answers with.
func statusLine(code int) string {
	switch code {
	case http.StatusOK:
		return "200 OK"
	case http.StatusNotModified:
		return "304 Not Modified"
	case http.StatusNotFound:
		return "404 Not Found"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// requestHash fingerprints one request's deterministic identity: FNV-1a
// over method, 0, host, 0, the status as eight little-endian bytes, and
// the CDN disposition.
func requestHash(method, host string, status int, cdn string) uint64 {
	h := fnv1a(14695981039346656037, method)
	h = fnv1a(h*fnvPrime, host) // a 0 byte changes nothing under xor: multiply only
	h *= fnvPrime
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (uint64(status) >> shift & 0xff)) * fnvPrime
	}
	return fnv1a(h, cdn)
}

const fnvPrime = 1099511628211

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// StreamDigest returns the cumulative request-stream fingerprint: an
// order-independent sum of per-request hashes over (method, host,
// status, CDN disposition). Deltas of this value fingerprint a phase's
// request multiset; the scenario engine uses them for determinism
// checks, since — unlike service times — they are independent of
// response sizes (and therefore of randomized signature lengths).
func (n *Network) StreamDigest() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.streamSum
}

// TotalStats returns aggregate transfer statistics, including the
// modelled service-time distribution summary.
func (n *Network) TotalStats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.total
	out.Latency = n.lat.Snapshot().Summary()
	return out
}

// LatencySnapshot returns the full service-time histogram over every
// request the fabric carried. The snapshot is mergeable and deltable
// (Snapshot.Sub), which is how the scenario engine attributes virtual
// service time to phases.
func (n *Network) LatencySnapshot() *hist.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lat.Snapshot()
}

// recorder is a minimal in-memory http.ResponseWriter. It replaces
// httptest.NewRecorder on the fabric's hot path: no header snapshotting,
// no bytes.Buffer, and the body is presized from the handler's
// Content-Length header when one is set before the first Write.
type recorder struct {
	code   int
	header http.Header
	body   []byte
}

func (r *recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header, 4)
	}
	return r.header
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	if r.body == nil {
		if cl := r.header.Get("Content-Length"); cl != "" {
			if n, err := strconv.Atoi(cl); err == nil && n >= len(p) {
				r.body = make([]byte, 0, n)
			}
		}
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

// untouched reports whether the handler chain has written nothing yet, so
// a stored response can be handed over whole.
func (r *recorder) untouched() bool {
	return r.code == 0 && len(r.header) == 0 && r.body == nil
}

// exchange is one round trip in one allocation: the writer the handler
// fills, the response the client gets, and that response's Body, which
// reads rec.body from off.
type exchange struct {
	rec  recorder
	resp http.Response
	off  int
}

func (x *exchange) Read(p []byte) (int, error) {
	if x.off >= len(x.rec.body) {
		return 0, io.EOF
	}
	n := copy(p, x.rec.body[x.off:])
	x.off += n
	return n, nil
}

// WriteTo lets io.Copy drain the body without an intermediate buffer.
func (x *exchange) WriteTo(w io.Writer) (int64, error) {
	b := x.rec.body[x.off:]
	x.off = len(x.rec.body)
	n, err := w.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	return int64(n), err
}

func (x *exchange) Close() error { return nil }

// ResetStats zeroes all accounting, histograms included.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.total = Stats{}
	n.streamSum = 0
	n.lat.Reset()
}
