package ocsp

import (
	"math/big"
	"math/rand"
	"testing"
)

// Mutated requests and responses must never panic the parsers — the
// responder parses attacker-controlled requests, the client parses
// network-served responses.
func TestParsersNeverPanicOnMutations(t *testing.T) {
	ca, key := newCA(t)
	req := (&Request{IDs: []CertID{NewCertID(ca, mustBig(12345))}, Nonce: []byte{1, 2, 3}}).Marshal()
	resp, err := CreateResponse(&ResponseTemplate{
		ProducedAt: testNow,
		Responses: []SingleResponse{{
			ID: NewCertID(ca, mustBig(12345)), Status: StatusGood, ThisUpdate: testNow,
		}},
	}, ca, key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, seed := range [][]byte{req, resp} {
		for i := 0; i < 10000; i++ {
			data := append([]byte(nil), seed...)
			for flips := rng.Intn(5) + 1; flips > 0; flips-- {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(5) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			if r, err := ParseRequest(data); err == nil && len(r.IDs) > 0 {
				r.IDs[0].Key()
			}
			if r, err := ParseResponse(data); err == nil && len(r.Responses) > 0 {
				r.Responses[0].CurrentAt(testNow)
			}
		}
	}
}

func FuzzParseResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(createErrorResponse(RespTryLater))
	f.Fuzz(func(t *testing.T, data []byte) {
		ParseResponse(data)
		ParseRequest(data)
	})
}

func mustBig(v int64) *big.Int { return big.NewInt(v) }
