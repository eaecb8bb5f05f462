package crlset

import (
	"math/big"
	"math/rand"
	"testing"
)

// Mutated CRLSet files must never panic parse — Chrome fetches them over
// plain HTTP.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	s := NewSet(9)
	for i := byte(1); i <= 4; i++ {
		for j := int64(1); j <= 20; j++ {
			s.Add(parent(i), big.NewInt(int64(i)*100+j))
		}
	}
	s.BlockedSPKIs = []Parent{parent(99)}
	seed, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		data := append([]byte(nil), seed...)
		for flips := rng.Intn(5) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(5) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		if set, err := parse(data); err == nil {
			set.Covers(parent(1), big.NewInt(101))
			set.NumEntries()
		}
	}
}

func FuzzParseCRLSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		parse(data)
	})
}
