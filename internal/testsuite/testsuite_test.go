package testsuite

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/browser"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = Build(Generate())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestGenerateShape(t *testing.T) {
	cases := Generate()
	// 24 baseline + 60 revoked + 120 unavailable + 20 unknown-status +
	// 20 fallback + 6 stapling — the same dimensions as the paper's
	// 244-configuration suite (§6.1), with the CRL-fallback probes the
	// Table 2 "Try CRL on failure" row needs broken out explicitly.
	if len(cases) != 250 {
		t.Fatalf("suite has %d cases, want 250", len(cases))
	}
	seen := map[string]bool{}
	byCondition := map[Condition]int{}
	for _, c := range cases {
		if seen[c.ID] {
			t.Errorf("duplicate case ID %s", c.ID)
		}
		seen[c.ID] = true
		byCondition[c.Condition]++
		if c.Intermediates < 0 || c.Intermediates > 3 {
			t.Errorf("%s: bad chain length", c.ID)
		}
		if c.Condition != CondGood && c.Target < 0 {
			t.Errorf("%s: missing target", c.ID)
		}
		if c.Target > c.Intermediates {
			t.Errorf("%s: target %d outside chain", c.ID, c.Target)
		}
	}
	want := map[Condition]int{
		CondGood: 24, CondRevoked: 60, CondUnavailable: 120,
		CondUnknownStatus: 20, CondFallbackRevoked: 20, CondStaple: 6,
	}
	for cond, n := range want {
		if byCondition[cond] != n {
			t.Errorf("%v cases = %d, want %d", cond, byCondition[cond], n)
		}
	}
}

func TestBuiltChainsAreWellFormed(t *testing.T) {
	s := sharedSuite(t)
	for _, c := range s.Cases {
		env := s.Envs[c.ID]
		if len(env.Chain) != c.Intermediates+2 {
			t.Fatalf("%s: chain length %d, want %d", c.ID, len(env.Chain), c.Intermediates+2)
		}
		// Signatures link each element to the next.
		for i := 0; i < len(env.Chain)-1; i++ {
			if err := env.Chain[i].CheckSignatureFrom(env.Chain[i+1]); err != nil {
				t.Fatalf("%s: link %d: %v", c.ID, i, err)
			}
		}
		if env.Chain[0].IsEV() != c.EV {
			t.Errorf("%s: EV mismatch", c.ID)
		}
		hasCRL := len(env.Chain[0].CRLDistributionPoints) > 0
		hasOCSP := len(env.Chain[0].OCSPServers) > 0
		switch c.Protocol {
		case ProtoCRL:
			if !hasCRL || hasOCSP {
				t.Errorf("%s: leaf pointers crl=%t ocsp=%t", c.ID, hasCRL, hasOCSP)
			}
		case ProtoOCSP:
			if hasCRL || !hasOCSP {
				t.Errorf("%s: leaf pointers crl=%t ocsp=%t", c.ID, hasCRL, hasOCSP)
			}
		case ProtoBoth:
			if !hasCRL || !hasOCSP {
				t.Errorf("%s: leaf pointers crl=%t ocsp=%t", c.ID, hasCRL, hasOCSP)
			}
		}
		if c.Condition == CondStaple && len(env.Staple) == 0 {
			t.Errorf("%s: missing staple", c.ID)
		}
	}
}

func TestHardenedPassesEverything(t *testing.T) {
	s := sharedSuite(t)
	m, err := s.Matrix([]*browser.Profile{browser.Hardened()})
	if err != nil {
		t.Fatal(err)
	}
	for ri, row := range m.Rows {
		if got := m.Cells[ri][0]; got != CellPass {
			t.Errorf("Hardened %q = %s, want %s", row.Label, got, CellPass)
		}
	}
}

func TestGoodChainsAcceptedByEveryone(t *testing.T) {
	s := sharedSuite(t)
	for _, p := range browser.All() {
		rep, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.Cases {
			if c.Condition != CondGood {
				continue
			}
			if rep.Outcomes[c.ID] != browser.OutcomeAccept {
				t.Errorf("%s rejected good chain %s", p.Name, c.ID)
			}
		}
	}
}

// expectedTable2 is the paper's Table 2, column by column, with "l/w"
// cells resolved by the per-OS profile split and the unmeasurable Linux
// "–" cells replaced by this model's documented behaviour (accept).
// Column order matches browser.All().
var expectedTable2 = map[string][15]Cell{
	//                               ChOSX ChWin ChLin FF40  O12  O31osx O31wl Safari IE79 IE10 IE11 iOS  Stock AChr IEM
	"CRL int1 revoked":       {"ev", "Y", "ev", "N", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"CRL int1 unavailable":   {"ev", "Y", "N", "N", "N", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"CRL int2+ revoked":      {"ev", "ev", "ev", "N", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"CRL int2+ unavailable":  {"N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N"},
	"CRL leaf revoked":       {"ev", "ev", "ev", "N", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"CRL leaf unavailable":   {"N", "N", "N", "N", "N", "N", "N", "N", "N", "a", "Y", "N", "N", "N", "N"},
	"OCSP int1 revoked":      {"ev", "ev", "ev", "ev", "N", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"OCSP int1 unavailable":  {"N", "N", "N", "N", "N", "N", "Y", "N", "Y", "Y", "Y", "N", "N", "N", "N"},
	"OCSP int2+ revoked":     {"ev", "ev", "ev", "ev", "N", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"OCSP int2+ unavailable": {"N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N", "N"},
	"OCSP leaf revoked":      {"ev", "ev", "ev", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "Y", "N", "N", "N", "N"},
	"OCSP leaf unavailable":  {"N", "N", "N", "N", "N", "N", "N", "N", "N", "a", "Y", "N", "N", "N", "N"},
	"Reject unknown status":  {"N", "N", "N", "Y", "Y", "N", "N", "N", "N", "N", "N", "-", "-", "-", "-"},
	"Try CRL on failure":     {"ev", "ev", "N", "N", "N", "N", "Y", "Y", "Y", "Y", "Y", "-", "-", "-", "-"},
	"Request OCSP staple":    {"Y", "Y", "Y", "Y", "Y", "Y", "Y", "N", "Y", "Y", "Y", "N", "i", "i", "N"},
	"Respect revoked staple": {"N", "Y", "N", "Y", "Y", "N", "Y", "-", "Y", "Y", "Y", "-", "-", "-", "-"},
}

func TestMatrixReproducesTable2(t *testing.T) {
	s := sharedSuite(t)
	profiles := browser.All()
	m, err := s.Matrix(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 16 {
		t.Fatalf("rows = %d", len(m.Rows))
	}
	for ri, row := range m.Rows {
		want, ok := expectedTable2[row.Label]
		if !ok {
			t.Errorf("no expectation for row %q", row.Label)
			continue
		}
		for ci, p := range profiles {
			if got := m.Cells[ri][ci]; got != want[ci] {
				t.Errorf("row %q, %s: got %q, want %q", row.Label, p.Name, got, want[ci])
			}
		}
	}
}

func TestMatrixFindAndRender(t *testing.T) {
	s := sharedSuite(t)
	m, err := s.Matrix([]*browser.Profile{browser.Firefox40(), browser.MobileSafari()})
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := m.Find("OCSP leaf revoked", "Firefox 40")
	if !ok || cell != CellPass {
		t.Errorf("Find = %q, %v", cell, ok)
	}
	if _, ok := m.Find("no such row", "Firefox 40"); ok {
		t.Error("Find invented a row")
	}
	out := m.Render()
	if !strings.Contains(out, "Firefox 40") || !strings.Contains(out, "OCSP leaf revoked") {
		t.Error("Render missing content")
	}
}

func TestSortedCaseIDsDeterministic(t *testing.T) {
	s := sharedSuite(t)
	a := s.SortedCaseIDs()
	b := s.SortedCaseIDs()
	if len(a) != len(s.Cases) {
		t.Fatalf("ids = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatal("not sorted")
		}
	}
}

// RunAll is the serial loop over Run: same reports, same order, at any
// GOMAXPROCS (run with -race: the profile runs share the suite's fabric,
// fault injector and CAs).
func TestRunAllEqualsSerialLoop(t *testing.T) {
	s := sharedSuite(t)
	profiles := append(browser.All(), browser.Hardened())
	want := make([]*Report, len(profiles))
	for i, p := range profiles {
		rep, err := s.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := s.RunAll(profiles)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d reports for %d profiles", procs, len(got), len(profiles))
		}
		for i := range want {
			if got[i].Profile != profiles[i] {
				t.Fatalf("GOMAXPROCS %d: report %d is for %s, want %s", procs, i, got[i].Profile.Name, profiles[i].Name)
			}
			if !reflect.DeepEqual(got[i].Outcomes, want[i].Outcomes) {
				t.Errorf("GOMAXPROCS %d: %s: outcomes differ from the serial run", procs, profiles[i].Name)
			}
		}
	}
	if got, err := s.RunAll(nil); err != nil || len(got) != 0 {
		t.Errorf("RunAll(nil) = %v, %v", got, err)
	}
}

// A profile run that fails fails RunAll, with the error the serial loop
// stops at and no reports.
func TestRunAllReturnsRunError(t *testing.T) {
	s := sharedSuite(t)
	broken := *s
	broken.Envs = make(map[string]*Env, len(s.Envs))
	for id, env := range s.Envs {
		broken.Envs[id] = env
	}
	bad := *s.Envs[s.Cases[0].ID]
	bad.Chain = nil // Evaluate rejects an empty chain
	broken.Envs[s.Cases[0].ID] = &bad
	profiles := []*browser.Profile{browser.Firefox40(), browser.IE11(), browser.Hardened()}
	_, serialErr := broken.Run(profiles[0])
	if serialErr == nil {
		t.Fatal("fixture: empty chain did not fail the run")
	}
	reports, err := broken.RunAll(profiles)
	if err == nil || err.Error() != serialErr.Error() || reports != nil {
		t.Fatalf("RunAll = %v, %v; the serial loop stops at %v", reports, err, serialErr)
	}
}
