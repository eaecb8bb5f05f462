package fleet

import "math/rand"

// planSource is math/rand's additive lagged-Fibonacci source (the one
// rand.NewSource returns) with lazy seeding: after Seed(s) it yields,
// draw for draw, the stream of rand.NewSource(s), but Seed itself is
// O(1). math/rand's Seed fills all 607 register words through 1,841
// steps of a Lehmer generator; a plan browser draws a few dozen numbers,
// so planSource fills a word only when the lagged-Fibonacci step first
// reads it.
//
// Word i of the seeded register is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[n] = seed·48271ⁿ mod (2³¹−1) is the Lehmer sequence and cooked
// is math/rand's fixed table, which planCooked recovers from the output
// of rand.NewSource(1) rather than copying it. Seed a planSource before
// drawing from it.
type planSource struct {
	tap, feed int
	seed      uint64                      // reduced seed, in [1, 2³¹−2]
	filled    [(planLen + 63) / 64]uint64 // bit i: vec[i] holds its value
	vec       [planLen]int64
}

const (
	planLen   = 607                    // register length (math/rand's rngLen)
	planTap   = 273                    // feedback tap (rngTap)
	planMod   = 1<<31 - 1              // the Lehmer modulus (int32max)
	planMult  = 48271                  // the Lehmer multiplier
	planPows  = 23 + 3*(planLen-1) + 1 // x[0] … x[1841]
	planZeroS = 89482311               // what math/rand seeds in place of 0
)

var (
	// planPow[n] = 48271ⁿ mod (2³¹−1), so x[n] = seed·planPow[n] mod 2³¹−1.
	planPow    = lehmerPowers()
	planCooked = recoverCooked()
)

func lehmerPowers() *[planPows]uint64 {
	var p [planPows]uint64
	p[0] = 1
	for n := 1; n < planPows; n++ {
		p[n] = p[n-1] * planMult % planMod
	}
	return &p
}

// recoverCooked solves for math/rand's cooked table from the first 607
// outputs of rand.NewSource(1). With tap starting at 0 and feed at 334,
// draw k reads words 333−k and 606−k (mod 607) and overwrites the first.
// Draws 273–333 add an untouched word 60…0 to a word draw k−273 wrote;
// draws 334–606 add an untouched word 606…334 to one draw k−273 wrote;
// draws 0–272 add two untouched words, 333…61 and the 606…334 already
// solved. XOR with seed 1's Lehmer words leaves the cooked table.
func recoverCooked() *[planLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [planLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	var v [planLen]int64 // seed 1's initial register
	for k := 273; k <= 333; k++ {
		v[333-k] = out[k] - out[k-273]
	}
	for k := 334; k < planLen; k++ {
		v[940-k] = out[k] - out[k-273]
	}
	for k := 0; k < 273; k++ {
		v[333-k] = out[k] - v[606-k]
	}
	var s planSource
	s.Seed(1)
	var cooked [planLen]int64
	for i := range cooked {
		cooked[i] = v[i] ^ s.lehmerWord(i)
	}
	return &cooked
}

// Seed applies math/rand's seed reduction and empties the register.
func (s *planSource) Seed(seed int64) {
	s.tap = 0
	s.feed = planLen - planTap
	seed %= planMod
	if seed < 0 {
		seed += planMod
	}
	if seed == 0 {
		seed = planZeroS
	}
	s.seed = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// lehmerWord is word i of the seeded register before the cooked XOR.
func (s *planSource) lehmerWord(i int) int64 {
	x := func(n int) int64 { return int64(s.seed * planPow[n] % planMod) }
	return x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i)
}

// word returns vec[i], filling it from the seed on its first read.
func (s *planSource) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.filled[i>>6]&bit == 0 {
		s.filled[i>>6] |= bit
		s.vec[i] = s.lehmerWord(i) ^ planCooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's lagged-Fibonacci step.
func (s *planSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += planLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += planLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the low 63 bits of the next Uint64, as math/rand does.
func (s *planSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
