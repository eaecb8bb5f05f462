// Staplingaudit: start a real TLS server on a real socket that staples an
// OCSP response, then audit it over the network — first with a fresh
// staple, then with a stapled *revoked* response, the scenario where
// browsers disagree most (§6.3's "Respect revoked staple" row).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/browser"
	"repro/internal/ca"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/crl"
	"repro/internal/host"
	"repro/internal/ocsp"
	"repro/internal/scan"
	"repro/internal/simnet"
	"repro/internal/x509x"
)

func main() {
	authority, err := ca.NewRoot(ca.Config{
		Name:         "Staple Demo CA",
		CRLBaseURL:   "http://crl.unreachable.invalid/crl",
		OCSPBaseURL:  "http://ocsp.unreachable.invalid/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
	})
	if err != nil {
		log.Fatal(err)
	}
	leafKey, err := x509x.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	cert, rec, err := authority.Issue(ca.IssueOptions{
		CommonName: "stapled.example.test",
		NotBefore:  time.Now().Add(-time.Hour),
		NotAfter:   time.Now().AddDate(1, 0, 0),
		PublicKey:  &leafKey.PublicKey,
	})
	if err != nil {
		log.Fatal(err)
	}

	makeStaple := func(status ocsp.Status) []byte {
		signer, key := authority.Signer()
		sr := ocsp.SingleResponse{
			ID:         ocsp.NewCertID(signer, rec.Serial),
			Status:     status,
			ThisUpdate: time.Now(),
			NextUpdate: time.Now().Add(96 * time.Hour),
		}
		if status == ocsp.StatusRevoked {
			sr.RevokedAt = time.Now().Add(-30 * time.Minute)
			sr.Reason = crl.ReasonKeyCompromise
		}
		staple, err := ocsp.CreateResponse(&ocsp.ResponseTemplate{
			ProducedAt: time.Now(),
			Responses:  []ocsp.SingleResponse{sr},
		}, signer, key)
		if err != nil {
			log.Fatal(err)
		}
		return staple
	}

	srv, err := host.NewLiveServer(host.LiveConfig{
		Chain:  [][]byte{cert.Raw, authority.Certificate().Raw},
		Key:    leafKey,
		Staple: makeStaple(ocsp.StatusGood),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("TLS server with OCSP stapling on %s\n", srv.Addr())
	fmt.Println("(the CA's responder URL is intentionally unreachable: the staple is the only source)")

	// Fetches go to an empty simulated network: nothing resolves or dials.
	offline := simnet.New().Client()
	auditor := &core.Auditor{Roots: chain.NewPool(authority.Certificate()), HTTP: offline, Timeout: 5 * time.Second}
	report, err := auditor.Audit(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- good staple ---")
	fmt.Print(report.Render())

	// Now the server staples a REVOKED response, as after a compromise.
	srv.SetStaple(makeStaple(ocsp.StatusRevoked))
	report, err = auditor.Audit(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- revoked staple ---")
	fmt.Print(report.Render())

	// What would real browsers do with that handshake? Evaluate the
	// grabbed chain and staple against two profiles.
	grab, err := scan.Grab(srv.Addr(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	chainCerts := append(grab.Chain, authority.Certificate())
	fmt.Println("\nbrowser verdicts on the revoked staple:")
	for _, p := range []*browser.Profile{browser.Firefox40(), browser.ChromeOSX(), browser.AndroidStock()} {
		client := &browser.Client{Profile: p, HTTP: offline}
		v, err := client.Evaluate(chainCerts, grab.Staple)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s -> %s\n", p.Name, v.Outcome)
	}
}
