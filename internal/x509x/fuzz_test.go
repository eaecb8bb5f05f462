package x509x

import (
	"math/rand"
	"testing"
)

// TestParseNeverPanicsOnMutations: certificates arrive from untrusted
// scanners; every mutation of a valid certificate must parse or error,
// never panic.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	root, rootKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, nil)
	rng := rand.New(rand.NewSource(7))
	for _, seed := range [][]byte{root.Raw, leaf.Raw} {
		for i := 0; i < 10000; i++ {
			data := append([]byte(nil), seed...)
			for flips := rng.Intn(6) + 1; flips > 0; flips-- {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(5) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			c, err := Parse(data)
			if err != nil {
				continue
			}
			// Parsed mutants must still be safe to interrogate.
			c.IsEV()
			c.FreshAt(c.NotBefore)
			_ = c.Subject.String()
		}
	}
}

func FuzzParseCertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err == nil {
			c.IsEV()
			_ = c.Subject.String()
		}
	})
}
