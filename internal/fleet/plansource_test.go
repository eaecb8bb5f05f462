package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestPlanSourceMatchesMathRand: after Seed(s), a planSource yields the
// stream of rand.NewSource(s), value for value, through Int63 and Uint64
// calls in any mix, past the 273-draw tap overlap and the 607-word wrap,
// and again after a re-seed in mid-stream.
func TestPlanSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 2, 1<<31 - 1, -(1<<31 - 1), 1 << 32, 89482311, 1 << 62}
	pick := rand.New(rand.NewSource(40))
	for len(seeds) < 220 {
		seeds = append(seeds, pick.Int63()>>uint(pick.Intn(63))*int64(1-2*pick.Intn(2)))
	}
	const draws = 2500
	var got planSource
	for si, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		// The second half of each stream runs under the next seed,
		// re-seeded in place on the same planSource.
		reseed := seeds[(si+1)%len(seeds)]
		for d := 0; d < draws; d++ {
			if d == draws/2 {
				want.Seed(reseed)
				got.Seed(reseed)
			}
			if pick.Intn(2) == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d (re-seed %d at draw %d): Int63 draw %d = %d, want %d", seed, reseed, draws/2, d, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d (re-seed %d at draw %d): Uint64 draw %d = %d, want %d", seed, reseed, draws/2, d, g, w)
			}
		}
	}
}

// BenchmarkBuildPlans draws the plans of the two benchmark fleets:
// heartbleed's (32,768 browsers × 32 evaluations) and offline's
// (16,384 × 192), over 2,048 certificates on every core.
func BenchmarkBuildPlans(b *testing.B) {
	for _, size := range []struct{ browsers, evals int }{{32768, 32}, {16384, 192}} {
		cfg := Config{Browsers: size.browsers, Certs: 2048, EvalsPerBrowser: size.evals, Seed: 1}
		cfg.fillDefaults()
		b.Run(fmt.Sprintf("%dx%d", size.browsers, size.evals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildPlans(cfg, runtime.GOMAXPROCS(0))
			}
		})
	}
}
