package crl

import (
	"math/big"
	"math/rand"
	"testing"
)

func mustBig(v int64) *big.Int { return big.NewInt(v) }

// Mutated CRLs must never panic the parser — the crawler parses whatever
// distribution points serve.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	issuer, key := newCA(t)
	var entries []Entry
	for i := int64(1); i <= 30; i++ {
		entries = append(entries, Entry{Serial: sb(i * 11), RevokedAt: thisUpdate, Reason: ReasonUnspecified})
	}
	seed := build(t, issuer, key, entries).Raw
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		data := append([]byte(nil), seed...)
		for flips := rng.Intn(6) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(5) == 0 {
			data = data[:rng.Intn(len(data))]
		}
		if c, err := Parse(data); err == nil {
			c.LookupSerial(mustBig(11).Bytes())
			c.CurrentAt(thisUpdate)
		}
	}
}

// FuzzParseCRL is differential: any input the legacy big.Int parser and
// the streaming parser disagree on — acceptance or parsed content — is a
// bug, not just a panic.
func FuzzParseCRL(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		assertParityOn(t, data)
	})
}
