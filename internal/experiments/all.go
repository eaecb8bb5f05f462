package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// experiment is one entry of the table: the ID its Result carries and
// the call that produces it.
type experiment struct {
	id  string
	run func(r *Runner) (*Result, error)
}

// table lists every experiment in paper order. All and Run both walk it.
var table = []experiment{
	{"fig1", func(r *Runner) (*Result, error) { return r.Figure1(), nil }},
	{"fig2", func(r *Runner) (*Result, error) { return r.Figure2(), nil }},
	{"fig3", func(r *Runner) (*Result, error) { return r.Figure3(), nil }},
	{"sec4.3", func(r *Runner) (*Result, error) { return r.StaplingDeployment(), nil }},
	{"fig4", func(r *Runner) (*Result, error) { return r.Figure4(), nil }},
	{"fig5", (*Runner).Figure5},
	{"fig6", (*Runner).Figure6},
	{"table1", (*Runner).Table1},
	{"table2", func(*Runner) (*Result, error) { return Table2() }},
	{"fig7", func(r *Runner) (*Result, error) { return r.Figure7(), nil }},
	{"sec7.2", func(r *Runner) (*Result, error) { return r.CRLSetCoverage(), nil }},
	{"fig8", func(r *Runner) (*Result, error) { return r.Figure8(), nil }},
	{"fig9", func(r *Runner) (*Result, error) { return r.Figure9(), nil }},
	{"fig10", func(r *Runner) (*Result, error) { return r.Figure10(), nil }},
	{"fig11", func(r *Runner) (*Result, error) { return r.Figure11(), nil }},
	{"sec3", func(r *Runner) (*Result, error) { return r.DatasetSummary(), nil }},
	{"ablation-sharding", (*Runner).AblationCRLSharding},
	{"ablation-stapling", (*Runner).AblationStapling},
	{"ablation-encoding", func(r *Runner) (*Result, error) { return r.AblationSetEncoding(), nil }},
	{"ablation-failure", func(*Runner) (*Result, error) { return AblationFailurePolicy() }},
	{"availability", func(*Runner) (*Result, error) { return Availability() }},
	{"ext-rfc6961", func(*Runner) (*Result, error) { return ExtensionMultiStaple() }},
	{"ext-shortlived", func(*Runner) (*Result, error) { return ExtensionShortLived(), nil }},
	{"ext-cascade", (*Runner).CascadeBandwidth},
}

// All runs every experiment and returns the results in paper order. The
// experiments only read the built world (its corpus, revocation database,
// and CRLSet timeline), so they are independent of one another and run
// under a bounded worker pool sized by r.Concurrency (0 means NumCPU,
// 1 means fully serial). Shared intermediate products — the per-shard CRL
// statistics, the CRLSet coverage walk, and the browser test suite — are
// memoized behind sync.Once so concurrent experiments compute them once.
func (r *Runner) All() ([]*Result, error) { return r.run(table) }

// Run runs the experiments with the given IDs, and no others, under the
// same pool as All. The results come in paper order whatever order the
// IDs are given in; an ID given twice runs once.
func (r *Runner) Run(ids ...string) ([]*Result, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var picked []experiment
	for _, e := range table {
		if want[e.id] {
			picked = append(picked, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		valid := make([]string, len(table))
		for i, e := range table {
			valid[i] = e.id
		}
		return nil, fmt.Errorf("experiments: unknown ID %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return r.run(picked)
}

// run runs the picked experiments and returns their results in order.
func (r *Runner) run(picked []experiment) ([]*Result, error) {
	workers := r.Concurrency
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(picked) {
		workers = len(picked)
	}

	results := make([]*Result, len(picked))
	errs := make([]error, len(picked))
	if workers <= 1 {
		for i, e := range picked {
			res, err := e.run(r)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = picked[i].run(r)
			}
		}()
	}
	for i := range picked {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
