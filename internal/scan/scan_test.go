package scan

import (
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/corpus"
	"repro/internal/host"
	"repro/internal/ocsp"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

func TestSimulatedScan(t *testing.T) {
	clock := simtime.NewClock(simtime.ScanStart)
	authority, err := ca.NewRoot(ca.Config{Name: "ScanCA", Clock: clock.Now, IncludeCRLDP: true, IncludeOCSP: true,
		CRLBaseURL: "http://crl.scanca.test", OCSPBaseURL: "http://ocsp.scanca.test"})
	if err != nil {
		t.Fatal(err)
	}
	recA := authority.IssueRecord(ca.IssueOptions{CommonName: "a.test", NotBefore: clock.Now(), NotAfter: clock.Now().AddDate(1, 0, 0)})
	recB := authority.IssueRecord(ca.IssueOptions{CommonName: "b.test", NotBefore: clock.Now(), NotAfter: clock.Now().AddDate(1, 0, 0)})

	// recA on two hosts (one stapling, warm), recB on one, one empty host.
	h1 := host.New(host.Config{Addr: 1, SupportsStapling: true, InitialFresh: true, Clock: clock.Now})
	h1.SetRecord(recA)
	h2 := host.New(host.Config{Addr: 2, Clock: clock.Now})
	h2.SetRecord(recA)
	h3 := host.New(host.Config{Addr: 3, Clock: clock.Now})
	h3.SetRecord(recB)
	h4 := host.New(host.Config{Addr: 4, Clock: clock.Now})

	s := &Scanner{Hosts: []*host.SimHost{h1, h2, h3, h4}}
	res := s.Scan(clock.Now())
	if res.HostsResponding != 3 {
		t.Errorf("responding = %d", res.HostsResponding)
	}
	if res.HostsStapling != 1 {
		t.Errorf("stapling = %d", res.HostsStapling)
	}
	if len(res.Advertisements) != 2 {
		t.Fatalf("advertisements = %d", len(res.Advertisements))
	}
	byRec := map[*ca.Record]corpus.Advertisement{}
	for _, ad := range res.Advertisements {
		byRec[ad.Record] = ad
	}
	if byRec[recA].Hosts != 2 || byRec[recA].StapledHosts != 1 {
		t.Errorf("recA ad = %+v", byRec[recA])
	}
	if byRec[recB].Hosts != 1 || byRec[recB].StapledHosts != 0 {
		t.Errorf("recB ad = %+v", byRec[recB])
	}
}

func TestScanIntoCorpus(t *testing.T) {
	clock := simtime.NewClock(simtime.ScanStart)
	rec := &ca.Record{CAName: "X", NotBefore: clock.Now(), NotAfter: clock.Now().AddDate(1, 0, 0)}
	h := host.New(host.Config{Addr: 1, Clock: clock.Now})
	h.SetRecord(rec)
	s := &Scanner{Hosts: []*host.SimHost{h}}
	c := corpus.New()
	first := clock.Now()
	for i := 0; i < 3; i++ {
		s.ScanInto(c, clock.Now())
		clock.Advance(7 * 24 * time.Hour)
	}
	if c.NumScans() != 3 || c.Size() != 1 {
		t.Errorf("corpus: scans=%d size=%d", c.NumScans(), c.Size())
	}
	c.Visit(func(ct *corpus.Cert) bool {
		if ct.LastHosts() != 1 || ct.LastStapledHosts() != 0 {
			t.Errorf("last hosts = %d/%d", ct.LastHosts(), ct.LastStapledHosts())
		}
		if !ct.Birth().Equal(first) || !ct.Death().Equal(first.Add(14*24*time.Hour)) {
			t.Errorf("lifetime [%v, %v]", ct.Birth(), ct.Death())
		}
		return true
	})
}

func TestLiveGrab(t *testing.T) {
	clock := simtime.NewClock(simtime.Date(2015, time.March, 28))
	authority, err := ca.NewRoot(ca.Config{Name: "GrabCA", Clock: clock.Now, IncludeCRLDP: true, IncludeOCSP: true,
		CRLBaseURL: "http://crl.grab.test", OCSPBaseURL: "http://ocsp.grab.test"})
	if err != nil {
		t.Fatal(err)
	}
	leafKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, recMeta, err := authority.Issue(ca.IssueOptions{
		CommonName: "grab.example.test",
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
			ID:         ocsp.NewCertID(signerCert, recMeta.Serial),
			Status:     ocsp.StatusGood,
			ThisUpdate: clock.Now(),
		}},
	}, signerCert, signerKey)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := host.NewLiveServer(host.LiveConfig{
		Chain:  [][]byte{cert.Raw, signerCert.Raw},
		Key:    leafKey,
		Staple: staple,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	grab, err := Grab(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(grab.Chain) != 2 {
		t.Fatalf("chain length = %d", len(grab.Chain))
	}
	if grab.Chain[0].SerialNumber.Cmp(recMeta.Serial) != 0 {
		t.Error("leaf serial mismatch")
	}
	if grab.Chain[0].Subject.CommonName != "grab.example.test" {
		t.Errorf("leaf CN = %q", grab.Chain[0].Subject.CommonName)
	}
	if !grab.Chain[1].IsCA {
		t.Error("second chain element should be the CA")
	}
	if len(grab.Staple) == 0 {
		t.Error("staple not captured")
	}
	parsed, err := ocsp.ParseResponse(grab.Staple)
	if err != nil || parsed.Responses[0].Status != ocsp.StatusGood {
		t.Errorf("staple parse: %v", err)
	}
	if grab.Version == 0 || grab.CipherSuite == 0 {
		t.Error("session parameters not recorded")
	}
}

func TestGrabConnectionRefused(t *testing.T) {
	if _, err := Grab("127.0.0.1:1", 500*time.Millisecond); err == nil {
		t.Error("Grab to closed port should fail")
	}
}
