// Package hist provides log-bucketed (HDR-style) latency histograms for
// the scenario engine's tail-latency measurements: a zero-allocation,
// lock-free record path on per-worker shards, mergeable snapshots whose
// bucket counts are exact, and quantile queries with a documented
// relative-error bound.
//
// # Bucketing and error bound
//
// Values are non-negative nanosecond durations. Values below 64 ns get
// one bucket each (exact); larger values are bucketed log-linearly with
// 64 sub-buckets per power of two, so every bucket's width is at most
// 1/64 of its lower bound. Quantile reports the lower bound of the
// bucket holding the requested rank, which is therefore never above the
// exact sample quantile and never more than a factor of 1/64 (≈1.6%)
// below it:
//
//	q_exact * (1 - 1/64) < Quantile(q) <= q_exact
//
// Bucket counts themselves are exact — merging shards or subtracting a
// baseline snapshot never loses a sample — so any two recordings of the
// same multiset of values produce byte-identical bucket arrays no matter
// how the samples were sharded. The maximum is tracked exactly,
// outside the bucket grid.
//
// # Clock discipline
//
// The package does not read clocks; callers record whatever duration
// they measured. The scenario engine records two kinds: wall-clock
// operation latency (non-deterministic, used for SLO gates) and
// CostModel-derived virtual service time from simnet (a pure function
// of the byte stream, used for determinism digests). Keep the two in
// separate histograms; only virtual-time histograms may participate in
// reproducibility checks.
package hist

import (
	"math/bits"
	"time"
)

const (
	// subBits is the log2 of sub-buckets per octave; the relative error
	// bound of Quantile is 1/SubCount.
	subBits = 6
	// SubCount is the number of sub-buckets per power of two (64).
	SubCount = 1 << subBits
	// NumBuckets is the fixed size of every bucket array. The grid
	// covers the full non-negative int64 range, so recorders of any two
	// histograms are always merge-compatible.
	NumBuckets = (63-subBits)*SubCount + 2*SubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(u uint64) int {
	if u < SubCount {
		return int(u)
	}
	s := uint(bits.Len64(u)) - subBits - 1
	return int(s)*SubCount + int(u>>s)
}

// BucketLow returns the smallest value mapped to bucket idx — the
// representative Quantile reports.
func BucketLow(idx int) int64 {
	if idx < SubCount {
		return int64(idx)
	}
	s := idx/SubCount - 1
	m := idx - s*SubCount
	return int64(m) << uint(s)
}

// Recorder is a single-writer histogram shard. The zero value is ready
// to use. Record is not safe for concurrent use; give each worker its
// own Recorder (see Sharded) and merge with Snapshot.
type Recorder struct {
	counts [NumBuckets]uint64
	count  uint64
	sum    int64
	max    int64
}

// Record adds one duration. Negative durations clamp to zero. The path
// allocates nothing: one array increment plus scalar bookkeeping.
func (r *Recorder) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	r.counts[bucketIndex(uint64(v))]++
	r.count++
	r.sum += v
	if v > r.max {
		r.max = v
	}
}

// Count returns how many samples the recorder holds.
func (r *Recorder) Count() uint64 { return r.count }

// Reset clears the recorder.
func (r *Recorder) Reset() { *r = Recorder{} }

// Snapshot copies the recorder into a mergeable snapshot.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Count: r.count, Sum: r.sum, Max: r.max}
	s.Counts = r.counts
	return s
}

// Sharded is a histogram split into per-worker recorders so concurrent
// writers never contend or interleave: worker i records into Shard(i).
type Sharded struct {
	shards []Recorder
}

// NewSharded returns a histogram with n independent shards (minimum 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	return &Sharded{shards: make([]Recorder, n)}
}

// Shard returns worker i's recorder (i wraps modulo the shard count).
func (s *Sharded) Shard(i int) *Recorder {
	if i < 0 {
		i = -i
	}
	return &s.shards[i%len(s.shards)]
}

// Snapshot merges every shard. The merged bucket counts depend only on
// the multiset of recorded values, never on which shard recorded what.
func (s *Sharded) Snapshot() *Snapshot {
	out := &Snapshot{}
	for i := range s.shards {
		r := &s.shards[i]
		for b, c := range r.counts {
			out.Counts[b] += c
		}
		out.Count += r.count
		out.Sum += r.sum
		if r.max > out.Max {
			out.Max = r.max
		}
	}
	return out
}

// Snapshot is an immutable merged histogram.
type Snapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64
	// Max is the exact maximum recorded value in nanoseconds.
	Max int64
}

// Add merges other into s in place and returns s. Bucket counts, Count,
// and Sum add exactly; Max takes the larger. Merging is commutative and
// associative, so any merge order over the same recordings produces
// byte-identical snapshots.
func (s *Snapshot) Add(other *Snapshot) *Snapshot {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	return s
}

// Sub returns the delta snapshot s minus base (counts, sum, and count
// subtract bucket-wise; Max is taken from s, since the exact maximum of
// only-new samples is not recoverable from cumulative state).
func (s *Snapshot) Sub(base *Snapshot) *Snapshot {
	out := &Snapshot{Count: s.Count - base.Count, Sum: s.Sum - base.Sum, Max: s.Max}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - base.Counts[i]
	}
	return out
}

// Quantile returns the value at rank ceil(q*Count) — the smallest
// recorded value v such that at least ceil(q*Count) samples are <= v,
// reported as its bucket's lower bound (see the package error bound).
// It returns 0 for an empty snapshot; q is clamped to [0, 1].
func (s *Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return BucketLow(i)
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean in nanoseconds (0 when empty).
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary reduces a snapshot to the tail-latency figures the scenario
// reports carry. All values are nanoseconds.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// Summary computes the snapshot's summary.
func (s *Snapshot) Summary() Summary {
	return Summary{
		Count:  s.Count,
		MeanNs: s.Mean(),
		P50Ns:  s.Quantile(0.50),
		P90Ns:  s.Quantile(0.90),
		P99Ns:  s.Quantile(0.99),
		P999Ns: s.Quantile(0.999),
		MaxNs:  s.Max,
	}
}
