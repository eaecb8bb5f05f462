package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// agreeFiles compares result set b with result set a, metric by metric
// and workload by workload, against the bounds BENCHMARK.json fixes. It
// prints every relative difference, signed so that positive means b is
// worse, with a verdict: "agree" inside the bound, "better" or "WORSE"
// beyond it. Two sets of runs of one commit should agree everywhere; a
// change compared with its parent may read better, never WORSE. It
// reports false if any pair reads WORSE or any operation failed.
func agreeFiles(sp *spec, pathA, pathB string, out io.Writer) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	counts := make(map[string]int)
	for _, w := range sp.Workloads {
		ea, eb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ea == nil || eb == nil {
			return false, fmt.Errorf("workload %s is missing from one result set", w.Name)
		}
		if ea.Failed != 0 || eb.Failed != 0 || !ea.Correct || !eb.Correct {
			fmt.Fprintf(out, "%s ops_failed %d vs %d FAILED\n", w.Name, ea.Failed, eb.Failed)
			ok = false
		}
		for _, m := range sp.EndToEnd {
			va, vb := ea.Metrics[m.Name].Value, eb.Metrics[m.Name].Value
			diff := worseBy(m, va, vb)
			verdict := "agree"
			switch {
			case diff > m.Bound:
				verdict, ok = "WORSE", false
			case diff < -m.Bound:
				verdict = "better"
			}
			counts[verdict]++
			fmt.Fprintf(out, "%s %s %.6g vs %.6g %s %+.2f%% (bound %.0f%%) %s\n", w.Name, m.Name, va, vb, m.Unit, diff*100, m.Bound*100, verdict)
		}
		// Per-layer metrics have no bound; their differences say where
		// an end-to-end difference comes from.
		for _, m := range sp.PerLayer {
			la, inA := ea.Layers[m.Name]
			lb, inB := eb.Layers[m.Name]
			if !inA || !inB || (la.Value == 0 && lb.Value == 0) {
				continue
			}
			fmt.Fprintf(out, "%s %s %.6g vs %.6g %s %+.2f%%\n", w.Name, m.Name, la.Value, lb.Value, m.Unit, worseBy(m, la.Value, lb.Value)*100)
		}
	}
	fmt.Fprintf(out, "%d agree, %d better, %d WORSE\n", counts["agree"], counts["better"], counts["WORSE"])
	return ok, nil
}

// worseBy returns by what share of a the value b is worse than a.
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readResults(path string) (*suiteResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
