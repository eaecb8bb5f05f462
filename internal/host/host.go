// Package host models HTTPS servers as the scanner sees them: which
// certificate an address advertises over time, whether the server supports
// OCSP stapling, and the staple-cache behaviour that makes single-scan
// stapling measurements undercount support by ~18% (§4.3, Figure 3).
//
// It also provides a real TLS server (over real sockets) that serves a
// chain with an OCSP staple, used by the live scanning and browser-test
// paths.
package host

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/ca"
)

// HandshakeResult is what one simulated TLS handshake reveals.
type HandshakeResult struct {
	// Record identifies the advertised certificate; nil when the host
	// currently serves nothing on 443.
	Record *ca.Record
	// StaplePresented reports whether an OCSP staple accompanied the
	// certificate.
	StaplePresented bool
}

// SimHost is one simulated HTTPS server.
//
// Stapling-capable servers mimic Nginx: a staple is included only when a
// fresh one is cached. A handshake that finds the cache stale gets no
// staple, but triggers a background refresh that succeeds with probability
// RefreshProb — modelling responder failures and load-balanced backends,
// which is why repeated connections observe progressively more stapling
// support (Figure 3).
type SimHost struct {
	// Addr is the simulated IPv4 address.
	Addr uint32
	// SupportsStapling is the server's static capability.
	SupportsStapling bool
	// RefreshProb is the chance a stale-cache handshake successfully
	// primes the cache for subsequent connections.
	RefreshProb float64
	// BackgroundWarmProb is the chance that organic traffic (which the
	// simulation does not model connection-by-connection) already
	// refreshed the cache when a scan arrives after a long quiet
	// period.
	BackgroundWarmProb float64
	// StapleValidity is how long a fetched staple stays fresh.
	StapleValidity time.Duration

	mu         sync.Mutex
	record     *ca.Record
	freshUntil time.Time
	clock      func() time.Time
	// rng is seeded from seed on the first draw: only a stale stapling
	// host ever draws, and a math/rand source costs 607 words to seed and
	// 4.9 KB to keep, which the other hosts of a twenty-thousand-host
	// world would pay for nothing.
	seed int64
	rng  *rand.Rand
}

// Config configures a SimHost.
type Config struct {
	Addr             uint32
	SupportsStapling bool
	// InitialFresh marks the staple cache primed at creation —
	// modelling organic traffic that already warmed the server.
	InitialFresh bool
	RefreshProb  float64
	// BackgroundWarmProb models organic traffic between measurement
	// episodes; see SimHost.BackgroundWarmProb.
	BackgroundWarmProb float64
	// StapleValidity defaults to 24h.
	StapleValidity time.Duration
	Clock          func() time.Time
	Seed           int64
}

// New creates a simulated host.
func New(cfg Config) *SimHost {
	if cfg.StapleValidity <= 0 {
		cfg.StapleValidity = 24 * time.Hour
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.RefreshProb <= 0 {
		cfg.RefreshProb = 0.5
	}
	h := &SimHost{
		Addr:               cfg.Addr,
		SupportsStapling:   cfg.SupportsStapling,
		RefreshProb:        cfg.RefreshProb,
		BackgroundWarmProb: cfg.BackgroundWarmProb,
		StapleValidity:     cfg.StapleValidity,
		clock:              cfg.Clock,
		seed:               cfg.Seed ^ int64(cfg.Addr),
	}
	if cfg.InitialFresh && cfg.SupportsStapling {
		h.freshUntil = cfg.Clock().Add(cfg.StapleValidity)
	}
	return h
}

// SetRecord changes (or clears, with nil) the certificate this host
// advertises — site operators rotating, replacing, or abandoning
// certificates between scans.
func (h *SimHost) SetRecord(rec *ca.Record) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.record = rec
}

// Record returns the currently advertised certificate record.
func (h *SimHost) Record() *ca.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.record
}

// StapleFreshUntil returns the instant the cached staple goes stale; the
// zero time when none was ever cached.
func (h *SimHost) StapleFreshUntil() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.freshUntil
}

// SetStapleFreshUntil puts the staple cache back to a state
// StapleFreshUntil returned, undoing the refreshes that the handshakes in
// between triggered: a measurement that connects to a host repeatedly
// warms its cache, and must not leave it warm for the next measurement.
func (h *SimHost) SetStapleFreshUntil(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.freshUntil = t
}

// Handshake performs one simulated TLS handshake.
func (h *SimHost) Handshake() HandshakeResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	res := HandshakeResult{Record: h.record}
	if h.record == nil || !h.SupportsStapling {
		return res
	}
	now := h.clock()
	if now.Before(h.freshUntil) {
		res.StaplePresented = true
		return res
	}
	// The cache looks stale from the scanner's vantage, but organic
	// traffic may have warmed it since the previous episode.
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(h.seed))
	}
	if h.BackgroundWarmProb > 0 && h.rng.Float64() < h.BackgroundWarmProb {
		h.freshUntil = now.Add(h.StapleValidity)
		res.StaplePresented = true
		return res
	}
	// Genuinely stale: no staple this time; attempt a background
	// refresh so a follow-up connection may see one.
	if h.rng.Float64() < h.RefreshProb {
		h.freshUntil = now.Add(h.StapleValidity)
	}
	return res
}
