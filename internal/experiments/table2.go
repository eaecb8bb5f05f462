package experiments

import (
	"fmt"

	"repro/internal/browser"
	"repro/internal/testsuite"
)

// Table2 runs the browser test suite against every profile and regenerates
// the paper's revocation-checking matrix. The suite is independent of the
// simulated world; it runs on its own fabric, the one suite the process
// builds (buildSuite).
func Table2() (*Result, error) {
	suite, err := buildSuite()
	if err != nil {
		return nil, err
	}
	return table2(suite)
}

func table2(suite *testsuite.Suite) (*Result, error) {
	profiles := browser.All()
	m, err := suite.Matrix(profiles)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "table2",
		Title: "Browser revocation-checking matrix",
	}
	res.Header = []string{"behaviour"}
	for i := range profiles {
		res.Header = append(res.Header, fmt.Sprintf("[%d]", i+1))
	}
	for ri, row := range m.Rows {
		r := []string{row.Label}
		for _, cell := range m.Cells[ri] {
			r = append(r, string(cell))
		}
		res.Rows = append(res.Rows, r)
	}
	// Legend rows for the numbered columns.
	for i, p := range profiles {
		res.Rows = append(res.Rows, []string{fmt.Sprintf("[%d] = %s", i+1, p.Name)})
	}

	// Spot-check the paper's headline cells.
	check := func(row, profile string, want testsuite.Cell, claim string) Finding {
		got, ok := m.Find(row, profile)
		return Finding{
			Metric:   fmt.Sprintf("%s / %s", profile, row),
			Paper:    claim,
			Measured: string(got),
			OK:       ok && got == want,
		}
	}
	res.Findings = []Finding{
		check("OCSP leaf revoked", "Firefox 40", testsuite.CellPass, "Firefox checks leaf OCSP"),
		check("CRL leaf revoked", "Firefox 40", testsuite.CellFail, "Firefox never fetches CRLs"),
		check("CRL leaf revoked", "Chrome 44 (OS X)", testsuite.CellEV, "Chrome checks only EV"),
		check("CRL int1 revoked", "Chrome 44 (Windows)", testsuite.CellPass, "Chrome/Win checks Int1 CRL"),
		check("CRL leaf unavailable", "IE 10", testsuite.CellWarn, "IE10 warns on unavailable leaf"),
		check("CRL leaf unavailable", "IE 11", testsuite.CellPass, "IE11 rejects"),
		check("Try CRL on failure", "Safari 6-8", testsuite.CellPass, "Safari falls back to CRLs"),
		check("Request OCSP staple", "Android Stock", testsuite.CellIgnores, "Android requests but ignores staples"),
		check("OCSP leaf revoked", "iOS 6-8", testsuite.CellFail, "no mobile browser checks anything"),
		check("Respect revoked staple", "Chrome 44 (OS X)", testsuite.CellFail, "Chrome/OSX ignores revoked staples"),
	}
	// No cell may be internally inconsistent.
	mixed := 0
	for _, rowCells := range m.Cells {
		for _, c := range rowCells {
			if c == testsuite.CellMixed {
				mixed++
			}
		}
	}
	res.Findings = append(res.Findings, Finding{
		Metric:   "internally consistent cells",
		Paper:    "each browser behaves deterministically per configuration",
		Measured: fmt.Sprintf("%d inconsistent cells", mixed),
		OK:       mixed == 0,
	})
	res.Findings = append(res.Findings, Finding{
		Metric:   "suite size",
		Paper:    "244 distinct configurations",
		Measured: fmt.Sprintf("%d configurations", len(suite.Cases)),
		OK:       len(suite.Cases) >= 244,
	})
	return res, nil
}
