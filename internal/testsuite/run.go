package testsuite

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/browser"
	"repro/internal/cascade"
	"repro/internal/ocsp"
)

// Cell is one Table 2 matrix cell.
type Cell string

// Cell values, matching the paper's legend.
const (
	// CellPass: the browser passes the test in all cases.
	CellPass Cell = "Y"
	// CellFail: the browser fails in all cases.
	CellFail Cell = "N"
	// CellEV: passes only when the leaf is an EV certificate.
	CellEV Cell = "ev"
	// CellWarn: pops a user warning instead of rejecting.
	CellWarn Cell = "a"
	// CellIgnores: requests OCSP staples but ignores the response.
	CellIgnores Cell = "i"
	// CellNA: not applicable (the browser never performs the action).
	CellNA Cell = "-"
	// CellMixed indicates inconsistent outcomes within one group — it
	// never appears for a correctly encoded profile.
	CellMixed Cell = "?!"
)

// Report holds one profile's outcome for every case.
type Report struct {
	Profile  *browser.Profile
	Outcomes map[string]browser.Outcome
}

// Run evaluates a profile against every case in the suite.
func (s *Suite) Run(p *browser.Profile) (*Report, error) {
	return s.run(&browser.Client{Profile: p, HTTP: s.Client(), Now: s.Clock.Now, Timeout: 5 * time.Second})
}

// RunCascade evaluates a profile with a filter cascade installed as the
// client's local artifact — the fully offline CRLite-style path. A stale
// cascade (per FreshAt) is skipped by the engine, so outcomes degrade to
// exactly what plain Run produces.
func (s *Suite) RunCascade(p *browser.Profile, f *cascade.Filter) (*Report, error) {
	return s.run(&browser.Client{Profile: p, HTTP: s.Client(), Now: s.Clock.Now, Timeout: 5 * time.Second, Cascade: f})
}

// RunAll evaluates every profile, as Run does, on up to GOMAXPROCS
// goroutines: a profile's run reads the suite and keeps its state in its
// own client, so the runs are independent. Reports come back in the
// order of profiles, and of several failures the one with the lowest
// index is returned, which makes the result the serial loop's.
func (s *Suite) RunAll(profiles []*browser.Profile) ([]*Report, error) {
	reports := make([]*Report, len(profiles))
	errs := make([]error, len(profiles))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(profiles)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(profiles) {
					return
				}
				reports[i], errs[i] = s.Run(profiles[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func (s *Suite) run(client *browser.Client) (*Report, error) {
	p := client.Profile
	rep := &Report{Profile: p, Outcomes: make(map[string]browser.Outcome, len(s.Cases))}
	for _, c := range s.Cases {
		env := s.Envs[c.ID]
		staple := env.Staple
		if !p.RequestStaple {
			staple = nil // the server staples only when asked
		}
		v, err := client.Evaluate(env.Chain, staple)
		if err != nil {
			return nil, fmt.Errorf("testsuite: %s: %w", c.ID, err)
		}
		rep.Outcomes[c.ID] = v.Outcome
	}
	return rep, nil
}

// RowSpec identifies one row of the matrix.
type RowSpec struct {
	Label string
	// selector picks the cases aggregated by this row, keyed on EV.
	selector func(c *Case) bool
	// flag rows are computed from profile flags / dedicated cases.
	special string
}

// posClass maps a case's target index to the paper's position rows.
func posClass(c *Case) browser.Position {
	switch {
	case c.Target == 0:
		return browser.PosLeaf
	case c.Target == 1:
		return browser.PosInt1
	default:
		return browser.PosIntDeep
	}
}

// Rows returns the Table 2 row specifications in paper order.
func Rows() []RowSpec {
	var rows []RowSpec
	for _, proto := range []Protocol{ProtoCRL, ProtoOCSP} {
		for _, pos := range []browser.Position{browser.PosInt1, browser.PosIntDeep, browser.PosLeaf} {
			for _, cond := range []Condition{CondRevoked, CondUnavailable} {
				proto, pos, cond := proto, pos, cond
				label := fmt.Sprintf("%s %s %s", strings.ToUpper(proto.String()), pos, cond)
				rows = append(rows, RowSpec{
					Label: label,
					selector: func(c *Case) bool {
						if c.Protocol != proto || c.Condition != cond || c.Target < 0 {
							return false
						}
						// Leaf rows use chains with at least one
						// intermediate so the "bare leaf acts as
						// Int1" special cases (§6.3) do not blur the
						// aggregate.
						if pos == browser.PosLeaf && c.Intermediates == 0 {
							return false
						}
						return posClass(c) == pos
					},
				})
			}
		}
	}
	rows = append(rows,
		RowSpec{Label: "Reject unknown status", special: "unknown"},
		RowSpec{Label: "Try CRL on failure", special: "fallback"},
		RowSpec{Label: "Request OCSP staple", special: "request-staple"},
		RowSpec{Label: "Respect revoked staple", special: "respect-staple"},
	)
	return rows
}

// aggregate computes the cell for a set of case outcomes split by EV.
func aggregate(rep *Report, ids map[bool][]string) Cell {
	verdictFor := func(ev bool) (allReject, anyReject, anyWarn bool) {
		allReject = true
		for _, id := range ids[ev] {
			switch rep.Outcomes[id] {
			case browser.OutcomeReject:
				anyReject = true
			case browser.OutcomeWarn:
				anyWarn = true
				allReject = false
			default:
				allReject = false
			}
		}
		if len(ids[ev]) == 0 {
			allReject = false
		}
		return allReject, anyReject, anyWarn
	}
	nonAll, nonAny, nonWarn := verdictFor(false)
	evAll, evAny, evWarn := verdictFor(true)
	switch {
	case nonAll && evAll:
		return CellPass
	case !nonAny && evAll:
		return CellEV
	case nonWarn || evWarn:
		return CellWarn
	case !nonAny && !evAny:
		return CellFail
	default:
		return CellMixed
	}
}

// Matrix is the rendered Table 2: one column per profile, one row per
// behaviour.
type Matrix struct {
	Profiles []*browser.Profile
	Rows     []RowSpec
	// Cells[row][col].
	Cells [][]Cell
}

// Matrix runs every profile and assembles the Table 2 matrix.
func (s *Suite) Matrix(profiles []*browser.Profile) (*Matrix, error) {
	m := &Matrix{Profiles: profiles, Rows: Rows()}
	reports, err := s.RunAll(profiles)
	if err != nil {
		return nil, err
	}
	for _, row := range m.Rows {
		cells := make([]Cell, len(profiles))
		for i, rep := range reports {
			cells[i] = s.cell(row, rep)
		}
		m.Cells = append(m.Cells, cells)
	}
	return m, nil
}

func (s *Suite) cell(row RowSpec, rep *Report) Cell {
	p := rep.Profile
	switch row.special {
	case "request-staple":
		switch {
		case p.RequestStaple && p.UseStaple:
			return CellPass
		case p.RequestStaple:
			return CellIgnores
		default:
			return CellFail
		}
	case "respect-staple":
		if !p.RequestStaple || !p.UseStaple {
			return CellNA
		}
		return aggregate(rep, s.selectIDs(func(c *Case) bool {
			return c.Condition == CondStaple && c.StapleStatus == ocsp.StatusRevoked
		}))
	case "unknown":
		if !p.ChecksAnything() && p.EV == nil {
			return CellNA
		}
		return aggregate(rep, s.selectIDs(func(c *Case) bool {
			return c.Condition == CondUnknownStatus && c.Target == 0 && c.Intermediates >= 1
		}))
	case "fallback":
		if !p.ChecksAnything() && p.EV == nil {
			return CellNA
		}
		// Only the leaf target isolates fallback: on deeper targets a
		// browser that checks CRLs at that position anyway (e.g. Opera
		// 12) would catch the revocation without ever attempting OCSP.
		return aggregate(rep, s.selectIDs(func(c *Case) bool {
			return c.Condition == CondFallbackRevoked && c.Target == 0 && c.Intermediates >= 1
		}))
	default:
		return aggregate(rep, s.selectIDs(row.selector))
	}
}

func (s *Suite) selectIDs(sel func(c *Case) bool) map[bool][]string {
	out := map[bool][]string{}
	for _, c := range s.Cases {
		if sel(c) {
			out[c.EV] = append(out[c.EV], c.ID)
		}
	}
	return out
}

// Render formats the matrix as an aligned text table.
func (m *Matrix) Render() string {
	var sb strings.Builder
	labelWidth := 0
	for _, r := range m.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	colWidth := 0
	for _, p := range m.Profiles {
		if len(p.Name) > colWidth {
			colWidth = len(p.Name)
		}
	}
	if colWidth < 4 {
		colWidth = 4
	}
	// Header: profile names rotated into columns would be unreadable in
	// plain text; list them as numbered columns instead.
	for i, p := range m.Profiles {
		fmt.Fprintf(&sb, "[%2d] %s\n", i+1, p.Name)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-*s", labelWidth+2, "")
	for i := range m.Profiles {
		fmt.Fprintf(&sb, "%4d", i+1)
	}
	sb.WriteByte('\n')
	for ri, row := range m.Rows {
		fmt.Fprintf(&sb, "%-*s", labelWidth+2, row.Label)
		for _, cell := range m.Cells[ri] {
			fmt.Fprintf(&sb, "%4s", string(cell))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Find returns the cell for a row label and profile name.
func (m *Matrix) Find(rowLabel, profileName string) (Cell, bool) {
	ri := -1
	for i, r := range m.Rows {
		if r.Label == rowLabel {
			ri = i
			break
		}
	}
	ci := -1
	for i, p := range m.Profiles {
		if p.Name == profileName {
			ci = i
			break
		}
	}
	if ri < 0 || ci < 0 {
		return "", false
	}
	return m.Cells[ri][ci], true
}

// SortedCaseIDs returns all case IDs, sorted, for deterministic output.
func (s *Suite) SortedCaseIDs() []string {
	ids := make([]string, 0, len(s.Cases))
	for _, c := range s.Cases {
		ids = append(ids, c.ID)
	}
	sort.Strings(ids)
	return ids
}
