package ribbon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func synthKeys(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, size)
		rng.Read(k)
		keys[i] = k
	}
	return keys
}

func sideHas(side []uint64, h uint64) bool {
	i := sort.Search(len(side), func(i int) bool { return side[i] >= h })
	return i < len(side) && side[i] == h
}

// Every enrolled key must retrieve its fingerprint: either the solved
// planes match, or the key was bumped and its exact hash is in the side
// list. This is the no-false-negative contract the cascade builds on.
func TestRibbonExactRetrieval(t *testing.T) {
	for _, tc := range []struct{ n, rBits int }{
		{0, 1}, {1, 7}, {5, 1}, {100, 7}, {300, 1}, {1000, 7}, {5000, 8},
	} {
		t.Run(fmt.Sprintf("n=%d/r=%d", tc.n, tc.rBits), func(t *testing.T) {
			keys := synthKeys(int64(tc.n)*8+int64(tc.rBits), tc.n, 40)
			f, bumped, err := Build(3, keys, tc.rBits)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				match, h64 := f.Probe(3, k)
				if !match && !sideHas(bumped, h64) {
					t.Fatalf("key %d: no match and not bumped", i)
				}
			}
			if len(bumped) > tc.n/100+1 {
				t.Fatalf("bumped %d of %d keys — slack too tight", len(bumped), tc.n)
			}
		})
	}
}

// Non-member keys must match at ~2^-rBits — the filter is a filter, not
// a hash table, and the cascade's level sizing depends on that rate.
func TestRibbonFalsePositiveRate(t *testing.T) {
	keys := synthKeys(1, 4000, 40)
	f, _, err := Build(0, keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	probes := synthKeys(2, 20000, 40)
	fp := 0
	for _, k := range probes {
		if f.Contains(0, k) {
			fp++
		}
	}
	// Expected 2^-7 ≈ 156 of 20000; fail beyond 3x.
	if fp > 3*20000/128 {
		t.Fatalf("false positive rate %d/20000 far above 2^-7", fp)
	}
}

// The solved bytes must be a pure function of the key set: insertion
// order must not matter, or the publisher's delta chain would churn.
func TestRibbonDeterministicBytes(t *testing.T) {
	keys := synthKeys(7, 2000, 40)
	f1, b1, err := Build(0, keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := make([][]byte, len(keys))
	copy(shuffled, keys)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	f2, b2, err := Build(0, shuffled, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.AppendEncode(nil), f2.AppendEncode(nil)) {
		t.Fatal("shuffled build produced different bytes")
	}
	if len(b1) != len(b2) {
		t.Fatalf("bump lists differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("bump %d differs", i)
		}
	}
}

// Churn locality: adding keys must only rewrite the buckets they land
// in (plus shared geometry), never the whole solution — that is what
// keeps the cascade's daily deltas proportional to churn.
func TestRibbonChurnLocality(t *testing.T) {
	keys := synthKeys(11, 5000, 40)
	f1, _, err := Build(0, keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append([][]byte(nil), keys...), synthKeys(12, 10, 40)...)
	f2, _, err := Build(0, grown, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f1.slots != f2.slots || f1.nBuckets != f2.nBuckets {
		t.Skip("geometry boundary crossed; locality only holds at fixed geometry")
	}
	pb := f1.planeBytes * int(f1.rBits)
	changed := 0
	for b := 0; b < int(f1.nBuckets); b++ {
		if !bytes.Equal(f1.sol[b*pb:(b+1)*pb], f2.sol[b*pb:(b+1)*pb]) {
			changed++
		}
	}
	if changed > 10 {
		t.Fatalf("%d buckets changed for 10 added keys", changed)
	}
}

func TestRibbonEncodeDecodeRoundTrip(t *testing.T) {
	keys := synthKeys(5, 1234, 40)
	f, _, err := Build(2, keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	enc := f.AppendEncode(nil)
	if len(enc) != f.EncodedLen() {
		t.Fatalf("EncodedLen %d != len %d", f.EncodedLen(), len(enc))
	}
	withTrailer := append(append([]byte(nil), enc...), 0xAA, 0xBB)
	dec, n, err := DecodePrefix(withTrailer)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d, want %d", n, len(enc))
	}
	if !bytes.Equal(dec.AppendEncode(nil), enc) {
		t.Fatal("re-encode not canonical")
	}
	for _, k := range keys[:100] {
		m1, h1 := f.Probe(2, k)
		m2, h2 := dec.Probe(2, k)
		if m1 != m2 || h1 != h2 {
			t.Fatal("decoded filter probes differently")
		}
	}
}

func TestRibbonDecodeRejects(t *testing.T) {
	f, _, err := Build(0, synthKeys(4, 500, 40), 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := f.AppendEncode(nil)
	corrupt := func(mut func([]byte)) []byte {
		c := append([]byte(nil), enc...)
		mut(c)
		return c
	}
	cases := map[string][]byte{
		"short header":   enc[:5],
		"rBits zero":     corrupt(func(b []byte) { b[0] = 0 }),
		"rBits nine":     corrupt(func(b []byte) { b[0] = 9 }),
		"pad nonzero":    corrupt(func(b []byte) { b[1] = 1 }),
		"slots unaliged": corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[2:], 77) }),
		"slots tiny":     corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[2:], 64) }),
		"slots huge":     corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[2:], 1<<21) }),
		"buckets zero":   corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 0) }),
		// A bucket count that would overflow a 32-bit int byte total must
		// be rejected by the int64 bound, not wrapped.
		"buckets huge": corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 1<<24) }),
		"truncated":    enc[:len(enc)-1],
		"plane pad":    corrupt(func(b []byte) { b[len(b)-1] = 0xFF }),
	}
	for name, data := range cases {
		if _, _, err := DecodePrefix(data); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
	if _, _, err := DecodePrefix(enc); err != nil {
		t.Fatalf("pristine rejected: %v", err)
	}
}

func TestRibbonProbeZeroAlloc(t *testing.T) {
	keys := synthKeys(6, 3000, 40)
	f, _, err := Build(0, keys, 7)
	if err != nil {
		t.Fatal(err)
	}
	key := keys[42]
	allocs := testing.AllocsPerRun(1000, func() {
		f.Probe(0, key)
	})
	if allocs != 0 {
		t.Fatalf("Probe allocates %.2f per run", allocs)
	}
}

// Sum is the one place sha256(salt‖key) is computed; pin it against the
// plain construction on both sides of its 64-byte stack buffer. (Probe ≡
// ProbeDigest(Sum) is pinned next to its user, in internal/cascade.)
func TestSumIsSaltedSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 33, 62, 63, 64, 200} {
		key := synthKeys(int64(n), 1, n)[0]
		d := Sum(5, key)
		if want := sha256.Sum256(append([]byte{5}, key...)); d != Digest(want) {
			t.Fatalf("len %d: Sum is not sha256(salt‖key)", n)
		}
		if Hash64(5, key) != d.Hash64() {
			t.Fatalf("len %d: Hash64 and Digest.Hash64 disagree", n)
		}
	}
}

// The estimate formula must agree with what Build actually produces —
// the cascade's per-level kind selection depends on it.
func TestRibbonEstimateMatchesBuild(t *testing.T) {
	for _, n := range []int{0, 1, 50, 300, 2000, 20000} {
		f, _, err := Build(0, synthKeys(int64(n), n, 40), 7)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.EncodedLen(), EstimateBytes(n, 7); got != want {
			t.Fatalf("n=%d: EncodedLen %d != EstimateBytes %d", n, got, want)
		}
	}
}

func BenchmarkRibbonProbe(b *testing.B) {
	keys := synthKeys(8, 100000, 40)
	f, _, err := Build(0, keys, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Probe(0, keys[i%len(keys)])
	}
}

func BenchmarkRibbonBuild(b *testing.B) {
	keys := synthKeys(9, 100000, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(0, keys, 7); err != nil {
			b.Fatal(err)
		}
	}
}
