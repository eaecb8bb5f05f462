package host

import (
	"crypto/tls"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ocsp"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

func newRecord() *ca.Record {
	return &ca.Record{CAName: "T", Serial: big.NewInt(1)}
}

func TestHandshakeWithoutStapling(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: 1, Clock: clock.Now})
	if res := h.Handshake(); res.Record != nil || res.StaplePresented {
		t.Errorf("empty host handshake = %+v", res)
	}
	rec := newRecord()
	h.SetRecord(rec)
	res := h.Handshake()
	if res.Record != rec || res.StaplePresented {
		t.Errorf("non-stapling host = %+v", res)
	}
	if h.Record() != rec {
		t.Error("Record accessor")
	}
	h.SetRecord(nil)
	if h.Handshake().Record != nil {
		t.Error("cleared record still advertised")
	}
}

func TestStapleCacheWarm(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: 2, SupportsStapling: true, InitialFresh: true, Clock: clock.Now})
	h.SetRecord(newRecord())
	if !h.Handshake().StaplePresented {
		t.Error("warm cache should staple")
	}
	// After the validity window the cache goes stale.
	clock.Advance(25 * time.Hour)
	if h.Handshake().StaplePresented {
		t.Error("stale cache should not staple")
	}
}

func TestStapleRefreshEventuallySucceeds(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: 3, SupportsStapling: true, RefreshProb: 0.5, Clock: clock.Now, Seed: 11})
	h.SetRecord(newRecord())
	sawStaple := false
	for i := 0; i < 50; i++ {
		if h.Handshake().StaplePresented {
			sawStaple = true
			break
		}
	}
	if !sawStaple {
		t.Error("staple never observed over 50 handshakes at RefreshProb 0.5")
	}
}

// The generator is seeded on the first draw, not in New, and draws the
// stream New's eager seeding drew: every handshake outcome equals a model
// driven by rand.NewSource(Seed ^ Addr). Hosts that never find their
// cache stale never seed one.
func TestRNGSeededOnFirstDrawSameStream(t *testing.T) {
	const seed, addr, p = 20150501, 0x0a000007, 0.4
	validity := 24 * time.Hour
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: addr, SupportsStapling: true, RefreshProb: p, BackgroundWarmProb: 0.2,
		StapleValidity: validity, Clock: clock.Now, Seed: seed})
	h.SetRecord(newRecord())
	if h.rng != nil {
		t.Fatal("generator seeded before the first draw")
	}
	ref := rand.New(rand.NewSource(seed ^ int64(addr)))
	var fresh time.Time
	model := func() bool {
		now := clock.Now()
		if now.Before(fresh) {
			return true
		}
		if ref.Float64() < 0.2 {
			fresh = now.Add(validity)
			return true
		}
		if ref.Float64() < p {
			fresh = now.Add(validity)
		}
		return false
	}
	for i := 0; i < 500; i++ {
		if got, want := h.Handshake().StaplePresented, model(); got != want {
			t.Fatalf("handshake %d: staple presented = %t, eager-seeded model says %t", i, got, want)
		}
		clock.Advance(7 * time.Hour)
	}

	for _, quiet := range []*SimHost{
		New(Config{Addr: 8, Clock: clock.Now, Seed: seed}),                                             // no stapling
		New(Config{Addr: 9, SupportsStapling: true, InitialFresh: true, Clock: clock.Now, Seed: seed}), // never stale
	} {
		quiet.SetRecord(newRecord())
		for i := 0; i < 10; i++ {
			quiet.Handshake()
		}
		if quiet.rng != nil {
			t.Errorf("host %d seeded a generator it never draws from", quiet.Addr)
		}
	}
}

// Concurrent handshakes on a host that has not drawn yet seed it once,
// under the host's lock (run with -race).
func TestFirstDrawIsSynchronized(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: 4, SupportsStapling: true, RefreshProb: 0.01, Clock: clock.Now, Seed: 5})
	h.SetRecord(newRecord())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Handshake()
			}
		}()
	}
	wg.Wait()
}

// A measurement can put a host's staple cache back as it found it.
func TestStapleCacheRestore(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	h := New(Config{Addr: 5, SupportsStapling: true, RefreshProb: 1, Clock: clock.Now, Seed: 5})
	h.SetRecord(newRecord())
	before := h.StapleFreshUntil()
	if h.Handshake().StaplePresented {
		t.Fatal("cold cache stapled")
	}
	if !h.Handshake().StaplePresented {
		t.Fatal("refresh at probability 1 did not warm the cache")
	}
	h.SetStapleFreshUntil(before)
	if h.Handshake().StaplePresented {
		t.Error("restored cold cache stapled")
	}
}

func TestSingleRequestUnderestimatesStapling(t *testing.T) {
	// The Figure 3 effect: over a population of stapling-capable
	// servers, one request observes fewer staplers than ten requests.
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	const n = 2000
	hosts := make([]*SimHost, n)
	for i := range hosts {
		hosts[i] = New(Config{
			Addr:             uint32(i),
			SupportsStapling: true,
			InitialFresh:     i%5 != 0, // 80% warm, 20% cold
			RefreshProb:      0.5,
			Clock:            clock.Now,
			Seed:             99,
		})
		hosts[i].SetRecord(newRecord())
	}
	observed := make(map[int]bool)
	firstCount := 0
	finalCount := 0
	for req := 0; req < 10; req++ {
		for i, h := range hosts {
			if h.Handshake().StaplePresented {
				observed[i] = true
			}
		}
		if req == 0 {
			firstCount = len(observed)
		}
	}
	finalCount = len(observed)
	firstFrac := float64(firstCount) / n
	finalFrac := float64(finalCount) / n
	if firstFrac < 0.7 || firstFrac > 0.9 {
		t.Errorf("first-request observation %.3f, want ~0.8", firstFrac)
	}
	if finalFrac < 0.97 {
		t.Errorf("ten-request observation %.3f, want near 1", finalFrac)
	}
	if finalFrac <= firstFrac {
		t.Error("repeated requests should observe more stapling support")
	}
}

func TestLiveServerStapling(t *testing.T) {
	// Build a real chain and staple, then fetch it over a real TLS
	// socket and confirm the staple arrives in the handshake.
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	authority, err := ca.NewRoot(ca.Config{
		Name:         "Live CA",
		CRLBaseURL:   "http://crl.live.test/crl",
		OCSPBaseURL:  "http://ocsp.live.test/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
		Clock:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	leafKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, rec, err := authority.Issue(ca.IssueOptions{
		CommonName: "live.example.test",
		DNSNames:   []string{"live.example.test"},
		NotBefore:  clock.Now().AddDate(0, -1, 0),
		NotAfter:   clock.Now().AddDate(1, 0, 0),
		PublicKey:  &leafKey.PublicKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	signerCert, signerKey := authority.Signer()
	staple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
		ProducedAt: clock.Now(),
		Responses: []ocsp.SingleResponse{{
			ID:         ocsp.NewCertID(signerCert, rec.Serial),
			Status:     ocsp.StatusGood,
			ThisUpdate: clock.Now(),
			NextUpdate: clock.Now().Add(96 * time.Hour),
		}},
	}, signerCert, signerKey)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewLiveServer(LiveConfig{
		Chain:  [][]byte{cert.Raw},
		Key:    leafKey,
		Staple: staple,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	state := conn.ConnectionState()
	conn.Close()
	if len(state.PeerCertificates) != 1 {
		t.Fatalf("peer certs = %d", len(state.PeerCertificates))
	}
	if state.PeerCertificates[0].SerialNumber.Cmp(rec.Serial) != 0 {
		t.Error("served certificate mismatch")
	}
	if len(state.OCSPResponse) == 0 {
		t.Fatal("no staple in handshake")
	}
	parsed, err := ocsp.ParseResponse(state.OCSPResponse)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Responses[0].Status != ocsp.StatusGood {
		t.Errorf("staple status = %v", parsed.Responses[0].Status)
	}

	// Clearing the staple removes it from subsequent handshakes.
	srv.SetStaple(nil)
	conn2, err := tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	state2 := conn2.ConnectionState()
	conn2.Close()
	if len(state2.OCSPResponse) != 0 {
		t.Error("staple still served after SetStaple(nil)")
	}
}

func TestLiveServerNeedsChain(t *testing.T) {
	if _, err := NewLiveServer(LiveConfig{}); err == nil {
		t.Error("accepted empty chain")
	}
}
