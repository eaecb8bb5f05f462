package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// distributions used by the quantile property test. Each returns one
// sample in nanoseconds.
var distributions = []struct {
	name string
	draw func(r *rand.Rand) int64
}{
	{"uniform", func(r *rand.Rand) int64 { return r.Int63n(10_000_000) }},
	{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 250_000) }},
	{"lognormal", func(r *rand.Rand) int64 {
		return int64(math.Exp(r.NormFloat64()*2 + 10))
	}},
	{"bimodal", func(r *rand.Rand) int64 {
		if r.Intn(100) < 95 {
			return 300 + r.Int63n(200) // warm path: hundreds of ns
		}
		return 40_000_000 + r.Int63n(20_000_000) // cold fetch: tens of ms
	}},
	{"tiny", func(r *rand.Rand) int64 { return r.Int63n(64) }}, // exact-bucket range
	{"huge", func(r *rand.Rand) int64 { return math.MaxInt64 - r.Int63n(1<<40) }},
}

// TestQuantileErrorBound checks the documented property against exact
// sorted-sample quantiles across seeds and distributions: the reported
// quantile equals the bucket lower bound of the exact rank value, and is
// within 1/SubCount relative error below it.
func TestQuantileErrorBound(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, dist := range distributions {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 1000 + r.Intn(9000)
			var rec Recorder
			samples := make([]int64, n)
			for i := range samples {
				v := dist.draw(r)
				samples[i] = v
				rec.Record(time.Duration(v))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			snap := rec.Snapshot()
			if snap.Count != uint64(n) {
				t.Fatalf("%s/seed%d: count = %d, want %d", dist.name, seed, snap.Count, n)
			}
			for _, q := range quantiles {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				exact := samples[rank-1]
				got := snap.Quantile(q)
				want := BucketLow(bucketIndex(uint64(exact)))
				if got != want {
					t.Errorf("%s/seed%d: Quantile(%v) = %d, want bucket low %d of exact %d",
						dist.name, seed, q, got, want, exact)
				}
				if got > exact {
					t.Errorf("%s/seed%d: Quantile(%v) = %d above exact %d", dist.name, seed, q, got, exact)
				}
				if lo := float64(exact) * (1 - (1.0 / SubCount)); float64(got) < lo-1 {
					t.Errorf("%s/seed%d: Quantile(%v) = %d below error bound %f of exact %d",
						dist.name, seed, q, got, lo, exact)
				}
			}
			if snap.Max != samples[n-1] {
				t.Errorf("%s/seed%d: Max = %d, want exact %d", dist.name, seed, snap.Max, samples[n-1])
			}
		}
	}
}

// TestShardMergeDeterminism records the same sample stream through 1
// shard and through N shards (striped like fleet workers) and requires
// byte-identical merged bucket counts, counts, sums, and digests.
func TestShardMergeDeterminism(t *testing.T) {
	for _, workers := range []int{2, 3, 7, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 5000
			stream := make([]int64, n)
			for i := range stream {
				stream[i] = distributions[i%len(distributions)].draw(r)
			}

			single := NewSharded(1)
			for _, v := range stream {
				single.Shard(0).Record(time.Duration(v))
			}
			multi := NewSharded(workers)
			for i, v := range stream {
				multi.Shard(i % workers).Record(time.Duration(v))
			}

			a, b := single.Snapshot(), multi.Snapshot()
			if a.Counts != b.Counts {
				t.Fatalf("workers=%d seed=%d: merged bucket arrays differ", workers, seed)
			}
			if a.Count != b.Count || a.Sum != b.Sum || a.Max != b.Max {
				t.Fatalf("workers=%d seed=%d: scalars differ: %+v vs %+v", workers, seed,
					Summary{Count: a.Count, MaxNs: a.Max}, Summary{Count: b.Count, MaxNs: b.Max})
			}
		}
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	// Exhaustive over the exact range and the first octaves, then spot
	// checks across every scale: indices are monotone and BucketLow is a
	// left inverse lower bound.
	prev := -1
	for v := uint64(0); v < 1<<14; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if low := BucketLow(idx); uint64(low) > v {
			t.Fatalf("BucketLow(%d) = %d above value %d", idx, low, v)
		}
	}
	for shift := uint(14); shift < 63; shift++ {
		for _, v := range []uint64{1 << shift, 1<<shift + 1, 1<<(shift+1) - 1} {
			idx := bucketIndex(v)
			if idx < 0 || idx >= NumBuckets {
				t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
			}
			low := BucketLow(idx)
			if uint64(low) > v {
				t.Fatalf("BucketLow(bucketIndex(%d)) = %d above value", v, low)
			}
			if float64(v-uint64(low)) > float64(v)*(1.0/SubCount) {
				t.Fatalf("bucket width at %d exceeds error bound: low %d", v, low)
			}
		}
	}
	if idx := bucketIndex(math.MaxInt64); idx >= NumBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d out of range %d", idx, NumBuckets)
	}
}

func TestSnapshotSub(t *testing.T) {
	var rec Recorder
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		rec.Record(time.Duration(r.Int63n(1_000_000)))
	}
	base := rec.Snapshot()
	var wantDelta Recorder
	for i := 0; i < 500; i++ {
		v := time.Duration(r.Int63n(1_000_000))
		rec.Record(v)
		wantDelta.Record(v)
	}
	delta := rec.Snapshot().Sub(base)
	want := wantDelta.Snapshot()
	if delta.Counts != want.Counts || delta.Count != want.Count || delta.Sum != want.Sum {
		t.Fatal("Sub did not recover the delta recording")
	}
}

func TestEmptyAndClamping(t *testing.T) {
	var rec Recorder
	if got := rec.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	rec.Record(-5 * time.Second)
	if got := rec.Snapshot().Quantile(1); got != 0 {
		t.Errorf("negative clamp: Quantile(1) = %d, want 0", got)
	}
	if rec.Count() != 1 {
		t.Errorf("Count = %d, want 1", rec.Count())
	}
	rec.Reset()
	if rec.Count() != 0 {
		t.Errorf("Reset: Count = %d", rec.Count())
	}
}

// BenchmarkRecord gates the warm record path: it must stay 0 allocs/op
// and within the 25 ns/op budget the fleet's verdict loop assumes.
func BenchmarkRecord(b *testing.B) {
	var rec Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(time.Duration(i & 0xFFFFF))
	}
	if rec.Count() != uint64(b.N) {
		b.Fatal("lost samples")
	}
}

func BenchmarkSnapshotQuantile(b *testing.B) {
	sh := NewSharded(8)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		sh.Shard(i % 8).Record(time.Duration(r.Int63n(1_000_000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sh.Snapshot()
		_ = snap.Quantile(0.999)
	}
}

// maxRecordNs is the record path's cost ceiling: a fleet records one
// sample per verdict, so timing must stay far below the verdicts it
// times (a warm verdict is a few hundred nanoseconds).
const maxRecordNs = 25

// TestRecordIsFreeAndFast gates the per-verdict record path: no
// allocation, and at most maxRecordNs per sample. The timing half is
// skipped under -race.
func TestRecordIsFreeAndFast(t *testing.T) {
	var r Recorder
	var d time.Duration
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(d & (1<<20 - 1))
		d++
	}); allocs != 0 {
		t.Errorf("Record allocates %v times per sample, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("record-path timing is not meaningful under -race")
	}
	// Best of five timed loops, so one descheduled loop cannot fail it.
	const n = 1 << 20
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			r.Record(time.Duration(i) & (1<<20 - 1))
		}
		best = min(best, time.Since(start))
	}
	if ns := float64(best.Nanoseconds()) / n; ns > maxRecordNs {
		t.Errorf("Record costs %.1f ns/sample, want <= %d", ns, maxRecordNs)
	}
}
