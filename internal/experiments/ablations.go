package experiments

import (
	"fmt"
	"sync"

	"repro/internal/bloom"
	"repro/internal/browser"
	"repro/internal/simnet"
	"repro/internal/testsuite"
)

var (
	suiteOnce   sync.Once
	sharedSuite *testsuite.Suite
	suiteErr    error
)

func buildSuite() (*testsuite.Suite, error) {
	suiteOnce.Do(func() {
		sharedSuite, suiteErr = testsuite.Build(testsuite.Generate())
	})
	return sharedSuite, suiteErr
}

// AblationCRLSharding quantifies the design choice §5.3 and §9 call out:
// CAs could shard their CRLs further to cut client bandwidth. It compares
// each CA's measured per-certificate CRL bytes against the
// single-monolithic-CRL alternative.
func (r *Runner) AblationCRLSharding() (*Result, error) {
	shards, err := r.shardStats()
	if err != nil {
		return nil, err
	}
	rows := r.World.Table1From(shards)
	totalSize := map[string]int{}
	for _, s := range shards {
		totalSize[s.CAName] += s.SizeBytes
	}
	res := &Result{
		ID:     "ablation-sharding",
		Title:  "Client CRL bytes per check: sharded vs monolithic CRL",
		Header: []string{"ca", "shards", "sharded_avg_bytes", "monolithic_bytes", "savings_factor"},
	}
	var worstFactor float64
	for _, row := range rows {
		if row.CRLs <= 1 || row.AvgCRLBytesPerCert == 0 {
			continue
		}
		mono := float64(totalSize[row.Name])
		factor := mono / row.AvgCRLBytesPerCert
		if factor > worstFactor {
			worstFactor = factor
		}
		res.Rows = append(res.Rows, []string{
			row.Name, fmt.Sprint(row.CRLs),
			fmt.Sprintf("%.0f", row.AvgCRLBytesPerCert),
			fmt.Sprintf("%.0f", mono),
			fmt.Sprintf("%.1fx", factor),
		})
	}
	res.Findings = []Finding{{
		Metric:   "sharding reduces client bytes",
		Paper:    "more, smaller CRLs approximate OCSP (§9)",
		Measured: fmt.Sprintf("best observed savings %.1fx", worstFactor),
		OK:       worstFactor > 1.5,
	}}
	return res, nil
}

// AblationStapling compares the client-perceived latency of a revocation
// check with and without OCSP stapling, under the simnet cost model.
func (r *Runner) AblationStapling() (*Result, error) {
	shards, err := r.shardStats()
	if err != nil {
		return nil, err
	}
	var sizes, weights []float64
	for _, s := range shards {
		sizes = append(sizes, float64(s.SizeBytes))
		weights = append(weights, float64(s.CertsPointing))
	}
	model := simnet.DefaultCostModel
	const ocspBytes = 1000 // "typically less than 1 KB" (§5.2)
	stapled := 0.0
	ocspCost := model.Cost(ocspBytes)
	// Weighted median CRL for the CRL-checking client.
	med := weightedMedian(sizes, weights)
	crlCost := model.Cost(int(r.fullScale(med)))

	res := &Result{
		ID:     "ablation-stapling",
		Title:  "Revocation-check latency: stapled vs OCSP vs CRL (modelled)",
		Header: []string{"mechanism", "extra_latency"},
		Rows: [][]string{
			{"OCSP staple in handshake", fmt.Sprintf("%v", stapled)},
			{"OCSP query", ocspCost.String()},
			{"CRL download (median cert, full-scale)", crlCost.String()},
		},
	}
	res.Findings = []Finding{
		{
			Metric:   "stapling removes the lookup penalty",
			Paper:    "staple costs no extra connection (§2.2)",
			Measured: fmt.Sprintf("0 vs %v OCSP vs %v CRL", ocspCost, crlCost),
			OK:       ocspCost > 0 && crlCost > ocspCost,
		},
		{
			Metric:   "OCSP latency scale",
			Paper:    "under ~250 ms (§5.2)",
			Measured: ocspCost.String(),
			OK:       ocspCost.Milliseconds() < 300,
		},
	}
	return res, nil
}

func weightedMedian(values, weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	type pair struct{ v, w float64 }
	pairs := make([]pair, len(values))
	for i := range values {
		pairs[i] = pair{values[i], weights[i]}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].v < pairs[j-1].v; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var run float64
	for _, p := range pairs {
		run += p.w
		if run >= total/2 {
			return p.v
		}
	}
	if len(pairs) == 0 {
		return 0
	}
	return pairs[len(pairs)-1].v
}

// AblationSetEncoding compares revocation-set encodings at a fixed byte
// budget: CRLSet's plain serial list, a Bloom filter at 1% FPR, and a
// Golomb-compressed set at the same FPR.
func (r *Runner) AblationSetEncoding() *Result {
	set := r.World.LatestSet()
	res := &Result{
		ID:     "ablation-encoding",
		Title:  "Revocations held in 250 KB: serial list vs Bloom vs GCS",
		Header: []string{"encoding", "capacity_at_250KB", "bits_per_entry"},
	}
	const budgetBytes = 250 * 1024
	// Plain list: measured bytes/entry from the generated CRLSet.
	perEntry := 10.0
	if set != nil && set.NumEntries() > 0 {
		perEntry = float64(set.Size()) / float64(set.NumEntries())
	}
	listCap := int(budgetBytes / perEntry)
	bloomCap := bloom.CapacityAtFPR(budgetBytes*8, 0.01)
	gcsBits := bloom.TheoreticalGCSBits(100) // 1% FPR
	gcsCap := int(budgetBytes * 8 / gcsBits)

	res.Rows = [][]string{
		{"CRLSet serial list", fmt.Sprint(listCap), fmt.Sprintf("%.1f", perEntry*8)},
		{"Bloom filter @1%", fmt.Sprint(bloomCap), fmt.Sprintf("%.1f", float64(budgetBytes*8)/float64(bloomCap))},
		{"Golomb set @1%", fmt.Sprint(gcsCap), fmt.Sprintf("%.1f", gcsBits)},
	}
	res.Findings = []Finding{
		{
			Metric:   "Bloom beats the serial list",
			Paper:    "order of magnitude more revocations (§7.4)",
			Measured: fmt.Sprintf("%d vs %d (%.1fx)", bloomCap, listCap, float64(bloomCap)/float64(listCap)),
			OK:       bloomCap > 5*listCap,
		},
		{
			Metric:   "GCS beats Bloom",
			Paper:    "Golomb sets reduce space further (Langley)",
			Measured: fmt.Sprintf("%d vs %d", gcsCap, bloomCap),
			OK:       gcsCap > bloomCap,
		},
	}
	return res
}

// AblationFailurePolicy measures the consequence of soft-failing: across
// the test suite's unavailable-infrastructure configurations, the fraction
// each policy accepts (an attacker who can block revocation traffic gets
// exactly this acceptance rate).
func AblationFailurePolicy() (*Result, error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablation-failure",
		Title:  "Acceptance rate under blocked revocation infrastructure",
		Header: []string{"profile", "unavailable_configs_accepted"},
	}
	profiles := []*browser.Profile{
		browser.Firefox40(), browser.ChromeOSX(), browser.Safari6to8(),
		browser.IE11(), browser.Hardened(),
	}
	reports, err := suite.RunAll(profiles)
	if err != nil {
		return nil, err
	}
	rates := map[string]float64{}
	for i, p := range profiles {
		rep := reports[i]
		total, accepted := 0, 0
		for _, c := range suite.Cases {
			if c.Condition != testsuite.CondUnavailable {
				continue
			}
			total++
			if rep.Outcomes[c.ID] == browser.OutcomeAccept {
				accepted++
			}
		}
		rate := ratio(accepted, total)
		rates[p.Name] = rate
		res.Rows = append(res.Rows, []string{p.Name, fmt.Sprintf("%.1f%%", rate*100)})
	}
	res.Findings = []Finding{
		{
			Metric:   "soft-fail browsers are blindable",
			Paper:    "blocking revocation traffic disables checking (§2.3)",
			Measured: fmt.Sprintf("Firefox accepts %.0f%%, Hardened %.0f%%", rates["Firefox 40"]*100, rates["Hardened"]*100),
			OK:       rates["Firefox 40"] > 0.9 && rates["Hardened"] == 0,
		},
	}
	return res, nil
}
