package browser

import (
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/crlset"
	"repro/internal/x509x"
)

// warmCases are the five verdicts a fleet makes by the million: an OCSP
// answer and a CRL out of the shared cache, and the installed cascade,
// shard set and CRLSet answering offline, each on a three-element chain
// (two checks per verdict).
var warmCases = []struct {
	name    string
	mode    protoMode
	install func(tb testing.TB, w *world, c *Client, chain []*x509x.Certificate)
}{
	{"ocsp-cache-hit", ocspOnly, func(_ testing.TB, w *world, c *Client, _ []*x509x.Certificate) { c.Cache = NewCache() }},
	{"crl-cache-hit", crlOnly, func(_ testing.TB, w *world, c *Client, _ []*x509x.Certificate) { c.Cache = NewCache() }},
	{"cascade", ocspOnly, func(tb testing.TB, w *world, c *Client, chain []*x509x.Certificate) {
		c.Cascade = buildChainCascade(tb, [][]*x509x.Certificate{chain}, nil, cascade.BuildConfig{
			Epoch: 1, BuiltAt: w.clock.Now(), MaxAge: 48 * time.Hour,
		})
	}},
	{"cascade-shards", ocspOnly, func(tb testing.TB, w *world, c *Client, chain []*x509x.Certificate) {
		c.CascadeShards = buildShardInstall(tb, [][]*x509x.Certificate{chain}, nil, w.clock.Now(), nil)
	}},
	{"crlset", ocspOnly, func(_ testing.TB, w *world, c *Client, chain []*x509x.Certificate) {
		c.CRLSet = crlset.NewSet(1)
		for _, p := range coveredParents(chain) {
			c.CRLSet.AddParent(p)
		}
	}},
}

// warmVerdict builds warmCases[i]'s world and client and returns a warm
// verdict: the call that returns it made the first one, which fills the
// cache, the memos and the Events array.
func warmVerdict(tb testing.TB, i int) (w *world, v *Verdict, evaluate func()) {
	tc := warmCases[i]
	w = newWorld(tb, tc.mode)
	chain, _ := w.leaf(false)
	client := w.client(Hardened())
	tc.install(tb, w, client, chain)
	v = &Verdict{}
	evaluate = func() {
		if err := client.EvaluateInto(v, chain, nil); err != nil || v.Outcome != OutcomeAccept {
			tb.Fatalf("verdict %+v, err %v", v, err)
		}
	}
	// Two verdicts warm every source: a cached CRL answers its first
	// lookup with a scan and builds its serial index on the second.
	evaluate()
	evaluate()
	return w, v, evaluate
}

// TestWarmVerdictAllocatesNothing gates warmCases: with a reused Verdict
// each costs exactly zero allocations and no network request.
func TestWarmVerdictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for i, tc := range warmCases {
		t.Run(tc.name, func(t *testing.T) {
			w, v, evaluate := warmVerdict(t, i)
			before := w.net.TotalStats().Requests
			// AllocsPerRun counts every goroutine's allocations, and the
			// x509x key pool refills in the background after newWorld drew
			// its CA keys. A pause lets it fill; an allocation on the warm
			// path shows in every attempt.
			allocs := testing.AllocsPerRun(200, evaluate)
			for try := 1; allocs != 0 && try < 3; try++ {
				time.Sleep(20 * time.Millisecond)
				allocs = testing.AllocsPerRun(200, evaluate)
			}
			if allocs != 0 {
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

// BenchmarkWarmVerdict times one warm verdict of each of warmCases.
func BenchmarkWarmVerdict(b *testing.B) {
	for i, tc := range warmCases {
		b.Run(tc.name, func(b *testing.B) {
			_, _, evaluate := warmVerdict(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				evaluate()
			}
		})
	}
}
