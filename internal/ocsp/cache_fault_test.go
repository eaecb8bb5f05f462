package ocsp

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/faultnet"
	"repro/internal/simnet"
)

// corruptTransportWorld serves a CachingResponder over simnet behind a
// byte-corrupting fault injector.
func corruptTransportWorld(t *testing.T, cfg faultnet.Config) (*cacheWorld, *Client) {
	t.Helper()
	w := newCacheWorld(t, time.Hour)
	net := simnet.New()
	net.Register("ocsp.faulty.test", w.responder)
	cfg.Now = func() time.Time { return *w.now.Load() }
	inj := faultnet.New(net, cfg)
	return w, &Client{HTTP: inj.Client()}
}

// TestCorruptedResponseNeverVerifiesGood is the satellite invariant: DER
// corrupted in transit must never come back as a *wrong* signature-
// verified status. A flip can land in bytes that parsing and signature
// verification legitimately ignore — that is harmless — but a revoked
// certificate must never verify as Good through a corrupted exchange.
func TestCorruptedResponseNeverVerifiesGood(t *testing.T) {
	w, client := corruptTransportWorld(t, faultnet.Config{Seed: 99, CorruptProb: 1})
	w.revoked.Store(true)
	sawError := false
	for serial := int64(1); serial <= 60; serial++ {
		sr, err := client.CheckContext(context.Background(), "http://ocsp.faulty.test/", w.ca, big.NewInt(serial), *w.now.Load())
		if err == nil && sr.Status != StatusRevoked {
			t.Fatalf("serial %d: corrupted response verified as %v, truth is revoked", serial, sr.Status)
		}
		if err != nil {
			sawError = true
			var re *ResponderError
			if errors.As(err, &re) && re.Status == RespSuccessful {
				t.Fatalf("serial %d: impossible responder error %v", serial, re.Status)
			}
		}
	}
	if !sawError {
		t.Fatal("corruption never surfaced an error across 60 exchanges; injector inert?")
	}
	w.revoked.Store(false)
	// Fresh serials through a clean transport verify Good — the cache
	// was never poisoned by the corruption (it lives server-side of the
	// fault).
	cleanNet := simnet.New()
	cleanNet.Register("ocsp.faulty.test", w.responder)
	clean := &Client{HTTP: cleanNet.Client()}
	for serial := int64(1001); serial <= 1030; serial++ {
		sr, err := clean.CheckContext(context.Background(), "http://ocsp.faulty.test/", w.ca, big.NewInt(serial), *w.now.Load())
		if err != nil {
			t.Fatalf("serial %d after corruption cleared: %v", serial, err)
		}
		if sr.Status != StatusGood {
			t.Fatalf("serial %d: status %v, want good", serial, sr.Status)
		}
	}
}

// TestTruncatedResponseNeverVerifiesGood: cutting the body mid-DER (with
// the original Content-Length intact) must surface as an error, not a
// believable status.
func TestTruncatedResponseNeverVerifiesGood(t *testing.T) {
	w, client := corruptTransportWorld(t, faultnet.Config{Seed: 7, TruncateProb: 1})
	for serial := int64(1); serial <= 30; serial++ {
		sr, err := client.CheckContext(context.Background(), "http://ocsp.faulty.test/", w.ca, big.NewInt(serial), *w.now.Load())
		if err == nil {
			t.Fatalf("serial %d: truncated response verified as %v", serial, sr.Status)
		}
	}
}

// TestEvictionDuringOutageNoDeadlock hammers the singleflight fill path
// while revocation-driven evictions race it and the transport flaps with
// connection errors. The test's only assertion is liveness plus
// cache-consistency: it must finish (no singleflight deadlock) and no
// request may observe a stale Good after the flip to revoked settles.
// Run with -race to make the interleavings count.
func TestEvictionDuringOutageNoDeadlock(t *testing.T) {
	w := newCacheWorld(t, time.Hour)
	net := simnet.New()
	net.Register("ocsp.flappy.test", w.responder)
	inj := faultnet.New(net, faultnet.Config{
		Seed:          11,
		ConnErrorProb: 0.5,
		Now:           func() time.Time { return *w.now.Load() },
	})
	client := &Client{HTTP: inj.Client()}
	id := NewCertID(w.ca, big.NewInt(7))

	const workers = 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				client.CheckContext(context.Background(), "http://ocsp.flappy.test/", w.ca, big.NewInt(7), *w.now.Load())
			}
		}()
	}
	// Evict in a tight loop while the queries run, flipping the source's
	// answer halfway through.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if i == 1000 {
				w.revoked.Store(true)
			}
			w.responder.EvictCertID(id)
		}
		close(stop)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("eviction/fill under faults deadlocked")
	}

	// Post-settle: with faults out of the way, the responder must answer
	// revoked — eviction cannot leave a pre-flip Good pinned in a shard.
	cleanNet := simnet.New()
	cleanNet.Register("ocsp.flappy.test", w.responder)
	clean := &Client{HTTP: cleanNet.Client()}
	w.responder.EvictCertID(id)
	sr, err := clean.CheckContext(context.Background(), "http://ocsp.flappy.test/", w.ca, big.NewInt(7), *w.now.Load())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status != StatusRevoked || sr.Reason != crl.ReasonKeyCompromise {
		t.Fatalf("post-eviction status %v, want revoked/keyCompromise", sr.Status)
	}
}
