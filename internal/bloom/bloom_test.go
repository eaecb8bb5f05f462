package bloom

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func item(i int) []byte { return []byte(fmt.Sprintf("serial-%d", i)) }

func TestNoFalseNegatives(t *testing.T) {
	f := NewOptimal(32<<10, 10000)
	for i := 0; i < 10000; i++ {
		f.Add(item(i))
	}
	for i := 0; i < 10000; i++ {
		if !f.Contains(item(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
	if f.n != 10000 {
		t.Errorf("n = %d", f.n)
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	const n = 20000
	f := NewOptimal(32<<10, n) // 32 KB for 20k entries
	for i := 0; i < n; i++ {
		f.Add(item(i))
	}
	theory := f.FalsePositiveRate()
	fp := 0
	const probes = 50000
	for i := 0; i < probes; i++ {
		if f.Contains(item(n + i)) {
			fp++
		}
	}
	measured := float64(fp) / probes
	if measured > theory*1.6+0.001 || (theory > 0.001 && measured < theory*0.4) {
		t.Errorf("measured FPR %.5f vs theoretical %.5f", measured, theory)
	}
}

func TestOptimalK(t *testing.T) {
	// m/n = 10 bits/entry → k ≈ 7.
	if k := OptimalK(100000, 10000); k != 7 {
		t.Errorf("OptimalK(10 bits/entry) = %d, want 7", k)
	}
	if k := OptimalK(8, 1000000); k != 1 {
		t.Errorf("overloaded filter k = %d, want 1", k)
	}
	if k := OptimalK(100, 0); k != 1 {
		t.Errorf("n=0 k = %d", k)
	}
}

func TestEstimateFPRMonotone(t *testing.T) {
	// More entries → higher FPR; bigger filter → lower FPR.
	if EstimateFPR(1<<20, 1000, 7) >= EstimateFPR(1<<20, 100000, 7) {
		t.Error("FPR should grow with n")
	}
	if EstimateFPR(1<<22, 50000, 7) >= EstimateFPR(1<<19, 50000, 7) {
		t.Error("FPR should shrink with m")
	}
	if EstimateFPR(1<<20, 0, 7) != 0 {
		t.Error("empty filter should have zero FPR")
	}
}

func TestCapacityAtFPR(t *testing.T) {
	// The paper's headline: a 256 KB filter at 1% FPR holds an order of
	// magnitude more than CRLSet's ~25k entries.
	n := CapacityAtFPR(256*1024*8, 0.01)
	if n < 150000 || n > 250000 {
		t.Errorf("256KB @ 1%% capacity = %d, want ~218k", n)
	}
	// 2 MB covers ~1.7M revocations (§7.4).
	n2 := CapacityAtFPR(2*1024*1024*8, 0.01)
	if n2 < 1500000 || n2 > 2000000 {
		t.Errorf("2MB @ 1%% capacity = %d, want ~1.7M", n2)
	}
	defer func() {
		if recover() == nil {
			t.Error("p=0 accepted")
		}
	}()
	CapacityAtFPR(8, 0)
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bits": func() { New(0, 3) },
		"zero k":    func() { New(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: anything added is always found (no false negatives, ever).
func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(items [][]byte) bool {
		bl := New(4096, 5)
		for _, it := range items {
			bl.Add(it)
		}
		for _, it := range items {
			if !bl.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCSNoFalseNegatives(t *testing.T) {
	var items [][]byte
	for i := 0; i < 5000; i++ {
		items = append(items, item(i))
	}
	g := BuildGCS(items, 1024)
	for i := 0; i < 5000; i++ {
		if !g.Contains(item(i)) {
			t.Fatalf("GCS false negative for %d", i)
		}
	}
	if g.n != 5000 {
		t.Errorf("n = %d", g.n)
	}
}

func TestGCSFalsePositiveRate(t *testing.T) {
	var items [][]byte
	const n = 2000
	for i := 0; i < n; i++ {
		items = append(items, item(i))
	}
	g := BuildGCS(items, 64)
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if g.Contains(item(n + i)) {
			fp++
		}
	}
	measured := float64(fp) / probes
	design := g.FalsePositiveRate()
	if measured > design*2+0.002 {
		t.Errorf("GCS measured FPR %.6f vs design %.6f", measured, design)
	}
	if measured < design/4 {
		t.Errorf("GCS measured FPR %.6f implausibly below design %.6f", measured, design)
	}
}

func TestGCSBeatsBloomOnSize(t *testing.T) {
	// The §7.4 follow-up: at equal FPR, GCS should use fewer bits per
	// entry than a Bloom filter (1.44·log2(1/p) vs log2(1/p)+1.5).
	var items [][]byte
	const n = 20000
	for i := 0; i < n; i++ {
		items = append(items, item(i))
	}
	const invP = 1024 // p ≈ 0.1%
	g := BuildGCS(items, invP)

	bloomBits := 1.44 * math.Log2(invP) * n
	gcsBits := float64(g.SizeBytes() * 8)
	if gcsBits >= bloomBits {
		t.Errorf("GCS %d bits should beat Bloom %.0f bits", int(gcsBits), bloomBits)
	}
	if bpe := g.BitsPerEntry(); bpe > TheoreticalGCSBits(invP)+1 {
		t.Errorf("GCS bits/entry %.2f exceeds theory %.2f", bpe, TheoreticalGCSBits(invP))
	}
}

func TestGCSEmpty(t *testing.T) {
	g := BuildGCS(nil, 256)
	if g.Contains(item(1)) {
		t.Error("empty GCS contains something")
	}
	if g.SizeBytes() != 0 || g.BitsPerEntry() != 0 {
		t.Error("empty GCS size accounting")
	}
}

func TestGCSSmallInvFPRClamped(t *testing.T) {
	g := BuildGCS([][]byte{item(1)}, 0)
	if !g.Contains(item(1)) {
		t.Error("clamped GCS lost its item")
	}
	if g.FalsePositiveRate() > 0.5 {
		t.Errorf("FPR = %v", g.FalsePositiveRate())
	}
}
