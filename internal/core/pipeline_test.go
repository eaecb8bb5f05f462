package core

import (
	"testing"
)

func TestRunStudyEndToEnd(t *testing.T) {
	p, err := RunStudy(PipelineConfig{Scale: 0.0003, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := p.Runner.World
	if w == nil || w.Corpus.NumScans() != 74 {
		t.Fatalf("world scans = %d", w.Corpus.NumScans())
	}
	results, err := p.Runner.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("results = %d", len(results))
	}
	// At very small scales some shape checks can get noisy; the pipeline
	// itself must still produce every experiment with findings.
	for _, res := range results {
		if res.ID == "" || len(res.Findings) == 0 {
			t.Errorf("experiment %q has no findings", res.ID)
		}
	}
}
