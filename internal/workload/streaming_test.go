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
// in parallel in memory, and in parallel on disk (a segdb revocation
// store) must produce identical world digests AND identical analyze
// output digests.
func TestStreamingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three worlds")
	}
	build := func(parallelism int, disk bool) *World {
		t.Helper()
		cfg := Config{Scale: 0.0005, Seed: 7, Parallelism: parallelism}
		if disk {
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

	memDigest := digest(build(1, false))
	diskDigest := digest(build(8, true))
	memParDigest := digest(build(8, false))

	if memDigest != memParDigest {
		t.Errorf("parallel in-memory build diverged from serial:\n%s\n%s", memDigest, memParDigest)
	}
	if memDigest != diskDigest {
		t.Errorf("on-disk build diverged from in-memory:\nmem   %s\ndisk  %s", memDigest, diskDigest)
	}
}
