package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// heartbleedWorkload drives a client fleet through the Heartbleed
// scenario: browsing on a shared cache against CDN-fronted responders,
// a cold-cache stampede, the mass revocation, the stale window, a
// responder brownout and the watch for convergence. One repetition is
// one scenario.Heartbleed call, fleet.New included, because every user
// of the scenario pays it.
//
// Like study it has nothing to build ahead of the timed repetitions, so
// set-up is one untimed repetition, whose digest every timed one must
// reproduce.
type heartbleedWorkload struct {
	e        *env
	cfg      heartbleedConfig
	warm     *latency // baseline-warm verdicts: the workload's operation
	brownout *latency
	want     string
	last     *heartbleedOutcome
}

// pinnedHeartbleed is the scenario digest of seed 1 at the benchmark's
// size; pinnedConvergenceVH is its convergence time, which depends on
// the schedule alone and so holds for every seed.
const (
	pinnedHeartbleed    = "6539d4e5ef3d5b93"
	pinnedConvergenceVH = 99.1
)

func newHeartbleed(e *env) instance {
	h := &heartbleedWorkload{
		e: e,
		// BrownoutChecks stays below 8,520 so the brownout's virtual time
		// does not outlast the 96 h OCSP window and the convergence time
		// keeps its meaning.
		cfg:      heartbleedConfig{clients: 32768, certs: 2048, evals: 32, workers: e.procs, stampede: 512, brownout: 4096, seed: e.seed},
		warm:     newLatency(1),
		brownout: newLatency(1),
	}
	if e.tiny {
		h.cfg.clients, h.cfg.certs, h.cfg.evals, h.cfg.stampede, h.cfg.brownout = 1024, 128, 16, 32, 256
	}
	return h
}

func (h *heartbleedWorkload) latency() *latency { return h.warm }

func (h *heartbleedWorkload) setUp() (float64, error) {
	t0 := time.Now()
	out, err := runHeartbleed(nil, h.cfg, newLatency(1), newLatency(1))
	if err != nil {
		return 0, err
	}
	h.want = out.digest
	if h.e.seed == 1 && !h.e.tiny && h.want != pinnedHeartbleed {
		return 0, fmt.Errorf("seed 1 scenario digest %s, pinned %s", h.want, pinnedHeartbleed)
	}
	return time.Since(t0).Seconds(), nil
}

func (h *heartbleedWorkload) unit(ln *lane) (ops, failed int64, err error) {
	out, err := runHeartbleed(ln, h.cfg, h.warm, h.brownout)
	if err != nil {
		return 0, 0, err
	}
	h.last = out
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{out.stampedeFetches == 1, fmt.Sprintf("stampede made %d origin fetches, want 1", out.stampedeFetches)},
		{out.staleWindowGood == out.stormRevocations, fmt.Sprintf("stale window accepted %d of %d revoked", out.staleWindowGood, out.stormRevocations)},
		{out.staleGoodFinal == 0, fmt.Sprintf("%d stale Good verdicts after convergence", out.staleGoodFinal)},
		{out.digest == h.want, fmt.Sprintf("scenario digest %s, first repetition had %s", out.digest, h.want)},
		{h.e.tiny || math.Abs(out.convergenceVH-pinnedConvergenceVH) < 0.05, fmt.Sprintf("converged after %.1f virtual hours, pinned %.1f", out.convergenceVH, pinnedConvergenceVH)},
	} {
		if !c.ok {
			failed++
			fmt.Fprintln(os.Stderr, "heartbleed:", c.what)
		}
	}
	return out.ops, failed, nil
}

func (h *heartbleedWorkload) probes(ln *lane) (map[string]float64, error) {
	m, err := heartbleedProbes(ln, h.cfg)
	if err != nil {
		return nil, err
	}
	for metric, phase := range map[string]string{
		"scenario.baseline_cold_ms": "baseline-cold",
		"scenario.baseline_warm_ms": "baseline-warm",
		"scenario.stampede_ms":      "stampede",
		"scenario.storm_ms":         "heartbleed-storm",
		"scenario.stale_window_ms":  "stale-window",
		"scenario.brownout_ms":      "brownout",
		"scenario.convergence_ms":   "convergence",
	} {
		m[metric] = h.last.phaseMS[phase]
	}
	m["scenario.brownout_p99_us"] = h.brownout.quantileUS(0.99)
	m["scenario.convergence_vh"] = h.last.convergenceVH
	m["scenario.stale_good"] = float64(h.last.staleGoodFinal)
	m["scenario.net_requests_brownout"] = float64(h.last.brownoutRequests)
	m["scenario.brownout_rejects"] = float64(h.last.brownoutRejects)
	m["scenario.storm_revoke_p50_us"] = h.last.stormRevokeP50US
	return m, nil
}
