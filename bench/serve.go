package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// serveWorkload is the relying-party read path: a closed loop of
// clients, one per processor, each replaying its own Zipf(1.3) sequence
// of pre-encoded requests (88 % OCSP GET, 10 % OCSP POST, 2 % CRL GET)
// against one CA behind a CDN. Steady, the clock is frozen and every
// answer is a CDN or pre-signed-cache hit. Churning, client 0 also
// writes: every churnStride of its requests the clock moves half an
// hour, and every revokeEvery-th time one more popular leaf is revoked,
// so responses expire, revocations evict, the responder signs again and
// CRL shards regenerate while the reads continue.
type serveWorkload struct {
	e     *env
	churn bool
	cfg   serveConfig
	// perClient is one unit's requests per client.
	perClient int
	lat       *latency
	stack     *serveStack
	events    int
	// tracedUnits counts the units that recorded per-request spans;
	// only the first does, or a window would hold millions of spans.
	tracedUnits int
}

const (
	// churnStride is how many of client 0's requests pass between two
	// clock moves. It was shortened until the traced run put half the
	// client time at the origin (ca.origin_share >= 0.5).
	churnStride = 32
	// revokeEvery spaces the revocations out, so the CRL shards grow by
	// a fraction over a run and not severalfold: a repetition's work
	// then stays the same from the first to the last.
	revokeEvery = 16
	// traceSpanLimit caps the per-request spans a client lane keeps.
	traceSpanLimit = 1 << 16
)

func newServe(e *env, churn bool) instance {
	s := &serveWorkload{
		e:         e,
		churn:     churn,
		cfg:       serveConfig{leaves: 8192, shards: 8, seqLen: 1 << 13, clients: e.procs, seed: e.seed, traced: e.trace},
		perClient: 1 << 17,
		lat:       newLatency(e.procs),
	}
	if e.tiny {
		s.cfg.leaves, s.cfg.seqLen, s.perClient = 512, 1<<10, 1<<11
	}
	return s
}

func (s *serveWorkload) latency() *latency { return s.lat }

// setUp builds the stack three times, reports the median build, and
// adds the one warm pass that fills the CDN and the pre-signed cache.
func (s *serveWorkload) setUp() (float64, error) {
	builds := 3
	if s.e.tiny {
		builds = 1
	}
	var times []float64
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		stack, err := newServeStack(s.cfg)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		s.stack = stack
	}
	t0 := time.Now()
	if _, failed := s.pass(nil, s.cfg.seqLen, false, nil); failed != 0 {
		return 0, fmt.Errorf("warm pass: %d requests failed", failed)
	}
	return median(times) + time.Since(t0).Seconds(), nil
}

// pass has every client send n requests, each the moment its previous
// one returned.
func (s *serveWorkload) pass(ln *lane, n int, churn bool, lat *latency) (ops, failed int64) {
	var bad atomic.Int64
	var wg sync.WaitGroup
	if ln != nil {
		if s.tracedUnits > 0 {
			ln = nil
		}
		s.tracedUnits++
	}
	for c := range s.stack.seqs {
		cl := ln.fork(traceSpanLimit)
		s.stack.refs[c].ln = cl
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := s.stack.seqs[c]
			for i := 0; i < n; i++ {
				t0 := time.Now()
				ok := s.stack.roundTrip(cl, &seq[i%len(seq)])
				if lat != nil {
					lat.record(c, time.Since(t0))
				}
				if !ok {
					bad.Add(1)
				}
				if churn && c == 0 && i%churnStride == churnStride-1 {
					s.events++
					if err := s.stack.churn(cl, s.events%revokeEvery == 0); err != nil {
						bad.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return int64(n * len(s.stack.seqs)), bad.Load()
}

func (s *serveWorkload) unit(ln *lane) (ops, failed int64, err error) {
	ops, failed = s.pass(ln, s.perClient, s.churn, s.lat)
	return ops, failed, nil
}

func (s *serveWorkload) check() (ops, failed int64, err error) {
	return s.stack.verify()
}

func (s *serveWorkload) probes(ln *lane) (map[string]float64, error) {
	return s.stack.serveProbes(ln, s.churn)
}

func (s *serveWorkload) derive(st *spanStats, m map[string]float64) {
	// Only the first unit's first traceSpanLimit spans of each client are
	// kept, so the origin's share is taken over the traced requests' time.
	trips, n := st.total("simnet.Network.RoundTrip")
	origin, reached := st.total("ca.Handler")
	m["ca.origin_requests"] = float64(reached)
	m["ca.origin_busy_s"] = origin
	if n > 0 {
		m["ca.origin_share"] = origin / trips
		m["simnet.roundtrip_self_us"] = median(st.selfOf("simnet.Network.RoundTrip")) * 1e6
	}
}
