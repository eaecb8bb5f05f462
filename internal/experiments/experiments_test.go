package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/testsuite"
	"repro/internal/workload"
)

var (
	runnerOnce sync.Once
	runner     *Runner
	runnerErr  error
)

// testRunner shares one small-scale world across all experiment tests.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	runnerOnce.Do(func() {
		runner, runnerErr = New(workload.Config{Scale: 0.002, Seed: 42})
	})
	if runnerErr != nil {
		t.Fatal(runnerErr)
	}
	return runner
}

// TestEveryExperimentMatchesPaperShape is the master fidelity check: every
// regenerated table and figure must reproduce the paper's qualitative
// shape (who wins, rough factors, crossovers).
func TestEveryExperimentMatchesPaperShape(t *testing.T) {
	r := testRunner(t)
	results, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("experiments = %d, want 24", len(results))
	}
	seen := map[string]bool{}
	for i, res := range results {
		if res.ID != table[i].id {
			t.Errorf("experiment %d: the table says %q, its result %q", i, table[i].id, res.ID)
		}
		if seen[res.ID] {
			t.Errorf("duplicate experiment ID %s", res.ID)
		}
		seen[res.ID] = true
		if len(res.Findings) == 0 {
			t.Errorf("%s: no findings", res.ID)
		}
		for _, f := range res.Findings {
			if !f.OK {
				t.Errorf("%s: shape mismatch: %s (paper %q, measured %q)", res.ID, f.Metric, f.Paper, f.Measured)
			}
		}
	}
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1", "table2", "sec3", "sec4.3", "sec7.2", "ext-rfc6961", "ext-shortlived", "ext-cascade", "availability"} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

// TestRunSelects: Run runs the named experiments and nothing else, in
// paper order, and names the valid IDs when it is given one that is not.
func TestRunSelects(t *testing.T) {
	r := testRunner(t)
	results, err := r.Run("table1", "fig1", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "fig1" || results[1].ID != "table1" {
		t.Fatalf("Run(table1, fig1, table1) returned %d results, want fig1 then table1", len(results))
	}
	if _, err := r.Run("fig1", "fig12"); err == nil ||
		!strings.Contains(err.Error(), "fig12") || !strings.Contains(err.Error(), "ext-cascade") {
		t.Fatalf("Run with an unknown ID: %v, want an error naming it and the valid ones", err)
	}
}

// Figure 3 connects to the sampled hosts ten times each, which warms
// their staple caches; it puts them back, so the experiment can run
// again on the same world (the tests share one, in any order) and still
// see the single-request undercount.
func TestFigure3Repeatable(t *testing.T) {
	r := testRunner(t)
	for run := 1; run <= 2; run++ {
		for _, f := range r.Figure3().Findings {
			if !f.OK {
				t.Errorf("run %d: shape mismatch: %s (paper %q, measured %q)", run, f.Metric, f.Paper, f.Measured)
			}
		}
	}
}

func TestRenderOutput(t *testing.T) {
	r := testRunner(t)
	res := r.Figure2()
	out := res.Render()
	if !strings.Contains(out, "fig2") || !strings.Contains(out, "SHAPE-OK") {
		t.Errorf("render output incomplete:\n%s", out)
	}
	if len(res.Rows) < 50 {
		t.Errorf("fig2 rows = %d, want one per scan", len(res.Rows))
	}
	if !res.OK() {
		t.Error("fig2 should be OK")
	}
}

func TestFigure11Standalone(t *testing.T) {
	// Figure 11 is analytic and must work without a world.
	r := &Runner{Scale: 1}
	res := r.Figure11()
	if !res.OK() {
		for _, f := range res.Findings {
			if !f.OK {
				t.Errorf("fig11: %s measured %s", f.Metric, f.Measured)
			}
		}
	}
	if len(res.Rows) != 10 {
		t.Errorf("fig11 rows = %d", len(res.Rows))
	}
	// FPR decreases along each row (bigger filters) and increases down
	// each column (more entries).
	for _, row := range res.Rows {
		var prev float64 = 2
		for _, cell := range row[1:] {
			var v float64
			if _, err := sscan(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v > prev {
				t.Errorf("FPR should fall with filter size: row %v", row)
			}
			prev = v
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%e", v)
}

// stripLatency returns a copy of the result without its wall-latency
// summaries: wall time is observational by design (the scenario engine's
// clock discipline keeps it out of every determinism surface), so
// outcome-equality checks compare everything else.
func stripLatency(r *Result) *Result {
	c := *r
	c.Latency = nil
	return &c
}

// TestAllParallelMatchesSerial proves the fan-out contract: running the
// full experiment suite with concurrent workers yields exactly the same
// results, in the same paper order, as a fully serial run over the same
// world.
func TestAllParallelMatchesSerial(t *testing.T) {
	shared := testRunner(t).World

	serialRunner := &Runner{World: shared, Concurrency: 1}
	serial, err := serialRunner.All()
	if err != nil {
		t.Fatal(err)
	}
	parallelRunner := &Runner{World: shared, Concurrency: 8}
	parallel, err := parallelRunner.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial ran %d experiments, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Errorf("experiment %d: order differs, %s vs %s", i, serial[i].ID, parallel[i].ID)
			continue
		}
		if serial[i].ID == "fig3" {
			// Figure 3 actively samples host staple caches (consuming
			// the world rng and per-host state), so a second run over
			// the same world legitimately observes different handshakes.
			// It is the only experiment touching that state, so its own
			// serial-vs-parallel determinism is covered by the workload
			// package's TestParallelDeterminism.
			continue
		}
		if !reflect.DeepEqual(stripLatency(serial[i]), stripLatency(parallel[i])) {
			t.Errorf("%s: parallel result differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, serial[i].Render(), parallel[i].Render())
		}
	}
}

func TestAvailabilityStandalone(t *testing.T) {
	// The sweep runs on its own fabric (no world) and must be a pure
	// function of its fixed seed: two invocations give identical results,
	// which is what lets All() run it under any concurrency.
	first, err := Availability()
	if err != nil {
		t.Fatal(err)
	}
	second, err := Availability()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripLatency(first), stripLatency(second)) {
		t.Error("Availability is not deterministic across invocations")
	}
	if !first.OK() {
		for _, f := range first.Findings {
			if !f.OK {
				t.Errorf("availability: %s: measured %s", f.Metric, f.Measured)
			}
		}
	}
	if len(first.Rows) != 7*5 {
		t.Errorf("rows = %d, want 7 levels x 5 profiles", len(first.Rows))
	}
}

// TestTable2SharedSuiteMatchesFresh: Table 2 runs on the process's one
// browser suite, which AblationFailurePolicy runs too; after the
// ablation, its rows and findings equal those of a suite built for the
// call.
func TestTable2SharedSuiteMatchesFresh(t *testing.T) {
	suite, err := testsuite.Build(testsuite.Generate())
	if err != nil {
		t.Fatal(err)
	}
	want, err := table2(suite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AblationFailurePolicy(); err != nil {
		t.Fatal(err)
	}
	got, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Errorf("Table 2 on the shared suite differs from a fresh one:\n--- shared ---\n%s\n--- fresh ---\n%s",
			got.Render(), want.Render())
	}
}
