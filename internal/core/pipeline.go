package core

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// Pipeline is the measurement-study facade: build the simulated ecosystem,
// replay the scan and crawl calendars, and expose the experiment runners —
// the scan→crawl→analyse loop of §3 behind one call.
type Pipeline struct {
	// Runner exposes every per-figure/table experiment and, through
	// Runner.World, the simulated ecosystem they analyse.
	Runner *experiments.Runner
}

// PipelineConfig parameterizes a study run.
type PipelineConfig struct {
	// Scale is the population scale relative to the real internet
	// (default 0.01 — the reference experiment scale).
	Scale float64
	// Seed drives the simulation's randomness. Identical seeds reproduce
	// the same counts, fractions and findings; byte sizes are not
	// seed-stable, since CA keys and ECDSA signature nonces come from
	// crypto/rand and a signature's DER length varies between runs.
	Seed int64
}

// RunStudy executes the full measurement study and returns its pipeline.
func RunStudy(cfg PipelineConfig) (*Pipeline, error) {
	wcfg := workload.DefaultConfig()
	if cfg.Scale > 0 {
		wcfg.Scale = cfg.Scale
	}
	if cfg.Seed != 0 {
		wcfg.Seed = cfg.Seed
	}
	runner, err := experiments.New(wcfg)
	if err != nil {
		return nil, fmt.Errorf("core: study: %w", err)
	}
	return &Pipeline{Runner: runner}, nil
}
