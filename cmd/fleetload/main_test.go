package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/browser"
	"repro/internal/fleet"
)

func TestRunFleetSmoke(t *testing.T) {
	var stdout bytes.Buffer
	// The -quick population: large enough that per-run fixed overhead
	// (worker spawns, first Events growth) does not dilute the
	// allocs/verdict gate.
	rep, err := runFleet(Config{
		Browsers:        32,
		Certs:           96,
		EvalsPerBrowser: 16,
		Workers:         2,
		ZipfS:           1.2,
		RevokedFraction: 0.1,
		CRLOnlyFraction: 0.3,
		StampedeClients: 24,
		Seed:            1,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"legacy-cold", "legacy-warm", "sharded-cold", "sharded-warm",
		"crlset-fastpath", "bloom-fastpath",
	} {
		p := rep.phase(name)
		if p == nil {
			t.Fatalf("phase %q missing", name)
		}
		if p.Verdicts != 32*16 {
			t.Errorf("%s: %d verdicts, want %d", name, p.Verdicts, 32*16)
		}
	}
	if err := checkGates(rep); err != nil {
		t.Errorf("gates: %v", err)
	}
	if rep.Stampede.Fetches != 1 {
		t.Errorf("stampede fetches = %d", rep.Stampede.Fetches)
	}
	if !rep.Determinism.Match {
		t.Errorf("determinism digests diverge: %+v", rep.Determinism)
	}
	if cold, warm := rep.phase("sharded-cold"), rep.phase("sharded-warm"); warm.NetRequests != 0 || cold.NetRequests == 0 {
		t.Errorf("net requests: cold %d, warm %d", cold.NetRequests, warm.NetRequests)
	}
}

func TestRunQuickCheckRoundTrip(t *testing.T) {
	// A -quick run's own report must satisfy checkAgainst against itself
	// (the same invariant -o enforces before writing).
	var stdout bytes.Buffer
	rep, err := runFleet(Config{
		Browsers:        32,
		Certs:           96,
		EvalsPerBrowser: 16,
		Workers:         1,
		ZipfS:           1.2,
		RevokedFraction: 0.1,
		CRLOnlyFraction: 0.3,
		StampedeClients: 16,
		Seed:            1, // the flag default: what -check gates in CI
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var recorded Report
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	if err := checkAgainst(&recorded, rep); err != nil {
		t.Errorf("self-check: %v", err)
	}
}

// TestEngineFleetMatchesDirectRun is the differential check for the
// scenario-engine rewire: a fleet run driven through runFleet's engine
// phases must produce exactly the digests and tallies a direct w.Run of
// the same world yields, while the engine-driven phases newly carry
// per-verdict latency.
func TestEngineFleetMatchesDirectRun(t *testing.T) {
	cfg := Config{
		Browsers:        32,
		Certs:           96,
		EvalsPerBrowser: 16,
		Workers:         2,
		ZipfS:           1.2,
		RevokedFraction: 0.1,
		CRLOnlyFraction: 0.3,
		StampedeClients: 24,
		Seed:            7,
	}
	var stdout bytes.Buffer
	rep, err := runFleet(cfg, &stdout)
	if err != nil {
		t.Fatal(err)
	}

	// Direct runs on a fresh but identically seeded world, no engine.
	w, err := fleet.New(fleet.Config{
		Browsers:        cfg.Browsers,
		Certs:           cfg.Certs,
		EvalsPerBrowser: cfg.EvalsPerBrowser,
		ZipfS:           cfg.ZipfS,
		RevokedFraction: cfg.RevokedFraction,
		CRLOnlyFraction: cfg.CRLOnlyFraction,
		Seed:            cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := browser.NewSingleLockCache()
	directCold, err := w.Run(fleet.RunOptions{Workers: cfg.Workers, Store: legacy})
	if err != nil {
		t.Fatal(err)
	}
	directWarm, err := w.Run(fleet.RunOptions{Workers: cfg.Workers, Store: legacy})
	if err != nil {
		t.Fatal(err)
	}

	// browser.SingleLockCache has no singleflight: two workers that miss
	// the same URL at once both fetch it, so the cold phase's request count
	// depends on scheduling and only the warm phase's is compared.
	for _, tc := range []struct {
		phase     string
		direct    fleet.Result
		netStable bool
	}{
		{"legacy-cold", directCold, false},
		{"legacy-warm", directWarm, true},
	} {
		p := rep.phase(tc.phase)
		if p == nil {
			t.Fatalf("phase %q missing", tc.phase)
		}
		if want := fmt.Sprintf("%016x", tc.direct.Digest); p.Digest != want {
			t.Errorf("%s: engine digest %s != direct %s", tc.phase, p.Digest, want)
		}
		if p.Verdicts != tc.direct.Verdicts || p.Rejects != tc.direct.Rejects ||
			p.Revocations != tc.direct.RevocationsDetected {
			t.Errorf("%s: tallies diverged: engine %d/%d/%d, direct %d/%d/%d", tc.phase,
				p.Verdicts, p.Rejects, p.Revocations,
				tc.direct.Verdicts, tc.direct.Rejects, tc.direct.RevocationsDetected)
		}
		if tc.netStable && p.NetRequests != tc.direct.NetRequests {
			t.Errorf("%s: net requests %d != direct %d", tc.phase, p.NetRequests, tc.direct.NetRequests)
		}
		if p.Latency.Count != uint64(p.Verdicts) {
			t.Errorf("%s: latency samples %d, want one per verdict (%d)", tc.phase, p.Latency.Count, p.Verdicts)
		}
		if p.Latency.P99Ns <= 0 {
			t.Errorf("%s: p99 missing: %+v", tc.phase, p.Latency)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown flag accepted")
	}
	if code := run([]string{"-o", "x.json", "-check", "y.json"}, &stdout, &stderr); code == 0 {
		t.Error("-o with -check accepted")
	}
}
