package workload

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// digestAnalyze fingerprints the analyze-layer outputs the experiments
// consume from the corpus: the Figure 2 fraction series, the dataset
// summary, the stapling snapshot, and the population/lifetime folds.
func digestAnalyze(h hash.Hash, w *World) {
	rf := w.RevokedFractionSeries()
	fmt.Fprintf(h, "rf %d\n", len(rf.Times))
	for i := range rf.Times {
		fmt.Fprintf(h, "%d %g %g %g %g\n", rf.Times[i].UnixNano(),
			rf.FreshAll[i], rf.FreshEV[i], rf.AliveAll[i], rf.AliveEV[i])
	}
	fmt.Fprintf(h, "summary %+v\n", w.Summary())
	fmt.Fprintf(h, "stapling %+v\n", w.StaplingDeployment())
	for _, t := range w.Corpus.Scans() {
		fmt.Fprintf(h, "pop %+v\n", w.Corpus.PopulationAt(t))
	}
	for _, life := range w.Corpus.Lifetimes() {
		fmt.Fprintf(h, "%g ", life)
	}
}

// TestStreamingDeterminism is the streaming engine's contract, mirroring
// TestParallelDeterminism: the same seed built serially in memory,
// in parallel in memory, and in parallel on disk (a segdb store, and a
// spill budget small enough to force every scan segment out) must
// produce identical world digests AND identical analyze output digests.
func TestStreamingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three worlds")
	}
	build := func(parallelism int, budget int64) *World {
		t.Helper()
		cfg := Config{Scale: 0.0005, Seed: 7, Parallelism: parallelism}
		if budget > 0 {
			cfg.MemoryBudget = budget
			cfg.Dir = t.TempDir()
		}
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	digest := func(w *World) string {
		t.Helper()
		h := sha256.New()
		fmt.Fprintln(h, digestWorld(w))
		digestAnalyze(h, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	mem := build(1, 0)
	memDigest := digest(mem)

	spilled := build(8, 1) // 1-byte budget: every sealed segment spills
	if st := spilled.Corpus.Stats(); st.SpilledSegments == 0 {
		t.Fatalf("expected spilled segments, stats = %+v", st)
	}
	spilledDigest := digest(spilled)

	memPar := build(8, 0)
	memParDigest := digest(memPar)

	if memDigest != memParDigest {
		t.Errorf("parallel in-memory build diverged from serial:\n%s\n%s", memDigest, memParDigest)
	}
	if memDigest != spilledDigest {
		t.Errorf("spilled build diverged from in-memory:\nmem   %s\ndisk  %s", memDigest, spilledDigest)
	}
}
