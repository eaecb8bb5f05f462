package bloom_test

import (
	"fmt"

	"repro/internal/bloom"
)

// A 256 KB Bloom filter — the CRLSet's byte budget — holds two hundred
// thousand revocations at ~1% false positives, where the CRLSet's exact
// serial list holds ~25k (§7.4).
func ExampleFilter() {
	f := bloom.NewOptimal(256<<10, 200_000)
	for i := 0; i < 200_000; i++ {
		f.Add([]byte(fmt.Sprintf("revoked-serial-%d", i)))
	}
	fmt.Println("false negatives possible:", false)
	fmt.Println("contains revoked-serial-7:", f.Contains([]byte("revoked-serial-7")))
	fmt.Printf("theoretical FPR under 1%%: %t\n", f.FalsePositiveRate() < 0.01)
	// Output:
	// false negatives possible: false
	// contains revoked-serial-7: true
	// theoretical FPR under 1%: true
}

func ExampleCapacityAtFPR() {
	fmt.Println(bloom.CapacityAtFPR(256*1024*8, 0.01))
	// Output: 218793
}

func ExampleBuildGCS() {
	items := [][]byte{[]byte("serial-a"), []byte("serial-b"), []byte("serial-c")}
	g := bloom.BuildGCS(items, 1024)
	fmt.Println("members found:", g.Contains(items[0]), g.Contains(items[1]), g.Contains(items[2]))
	// Output:
	// members found: true true true
}
