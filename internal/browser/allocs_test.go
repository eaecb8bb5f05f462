package browser

import (
	"testing"

	"repro/internal/crlset"
	"repro/internal/x509x"
)

// TestWarmVerdictAllocatesNothing gates the four verdicts a fleet makes
// by the million: an OCSP answer and a CRL out of the shared cache, and
// the installed shard set and CRLSet answering offline. With a reused
// Verdict each costs exactly zero allocations, on a three-element chain
// (two checks per verdict).
func TestWarmVerdictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cases := []struct {
		name    string
		mode    protoMode
		install func(w *world, c *Client, chain []*x509x.Certificate)
	}{
		{"ocsp-cache-hit", ocspOnly, func(w *world, c *Client, _ []*x509x.Certificate) { c.Cache = NewCache() }},
		{"crl-cache-hit", crlOnly, func(w *world, c *Client, _ []*x509x.Certificate) { c.Cache = NewCache() }},
		{"cascade-shards", ocspOnly, func(w *world, c *Client, chain []*x509x.Certificate) {
			c.CascadeShards = buildShardInstall(t, [][]*x509x.Certificate{chain}, nil, w.clock.Now(), nil)
		}},
		{"crlset", ocspOnly, func(w *world, c *Client, chain []*x509x.Certificate) {
			c.CRLSet = crlset.NewSet(1)
			for _, p := range coveredParents(chain) {
				c.CRLSet.AddParent(p)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.mode)
			chain, _ := w.leaf(false)
			client := w.client(Hardened())
			tc.install(w, client, chain)
			var v Verdict
			evaluate := func() {
				if err := client.EvaluateInto(&v, chain, nil); err != nil || v.Outcome != OutcomeAccept {
					t.Fatalf("verdict %+v, err %v", v, err)
				}
			}
			evaluate() // fills the cache, the memos and the Events array
			before := w.net.TotalStats().Requests
			if allocs := testing.AllocsPerRun(200, evaluate); allocs != 0 {
				t.Errorf("%v allocations per warm verdict, want 0", allocs)
			}
			if got := w.net.TotalStats().Requests - before; got != 0 {
				t.Errorf("warm verdicts made %d network requests", got)
			}
			if len(v.Events) != 2 {
				t.Errorf("verdict checked %d elements, want 2: %+v", len(v.Events), v.Events)
			}
		})
	}
}
