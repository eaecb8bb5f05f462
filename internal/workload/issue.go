package workload

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ca"
	"repro/internal/crl"
	"repro/internal/host"
)

// This file implements the plan/execute split for batch issuance. Every
// random decision a certificate needs — validity, pointer omissions, EV,
// popularity, host count, per-host stapling behaviour — is drawn from the
// world RNG while planning, in exactly the order the serial
// implementation drew it. Execution (CA book-keeping, host construction)
// consumes no world randomness, so plans can run on any goroutine, and
// integration replays the plans in order so shared state ends up
// identical to a serial run.

// parallelism resolves the configured worker-pool bound.
func (w *World) parallelism() int {
	if w.Cfg.Parallelism > 0 {
		return w.Cfg.Parallelism
	}
	return runtime.NumCPU()
}

// hostPlan is one pre-drawn host assignment.
type hostPlan struct {
	addr             uint32
	supportsStapling bool
	initialFresh     bool
}

// certPlan is one certificate's pre-drawn issuance decisions.
type certPlan struct {
	authority *Authority
	// certIdx is the certificate's reserved index in World.Certs; the
	// subject name embeds it, so it is fixed at plan time.
	certIdx    int
	issued     time.Time
	notAfter   time.Time
	ev         bool
	omitOCSP   bool
	omitCRL    bool
	popular    bool
	popularTop bool
	advertise  bool
	hosts      []hostPlan
	// cs is the executed certificate state, filled in by executePlan.
	cs *CertState
}

// planCert draws one certificate's issuance decisions. The draw order
// must not change: it defines the RNG stream that makes parallel and
// serial builds — and builds before this refactor — identical per seed.
func (w *World) planCert(authority *Authority, issued time.Time, certIdx int) *certPlan {
	profile := &authority.Profile
	p := &certPlan{authority: authority, certIdx: certIdx, issued: issued}
	p.notAfter = issued.Add(w.sampleValidity(authority))
	if !profile.OCSPAdoption.IsZero() && issued.Before(profile.OCSPAdoption) {
		p.omitOCSP = true
	} else if w.rng.Float64() < 0.03 {
		p.omitOCSP = true
	}
	if w.rng.Float64() < 0.002 {
		p.omitCRL = true
		// Pointer omissions correlate: a CA sloppy enough to skip the
		// CRL pointer often skips OCSP too, yielding the ~0.1% of
		// certificates that can never be revoked (§3.2).
		if w.rng.Float64() < 0.5 {
			p.omitOCSP = true
		}
	}
	p.ev = w.rng.Float64() < profile.EVFraction
	p.popular = w.rng.Float64() < 0.20
	p.popularTop = w.rng.Float64() < 0.0005

	// Advertise only web certificates that are (or will become) fresh
	// during the observation window.
	if profile.WebCA() && p.notAfter.After(w.Cfg.Start) {
		p.advertise = true
		p.hosts = make([]hostPlan, w.sampleHostCount())
		for i := range p.hosts {
			w.nextAddr++
			p.hosts[i] = hostPlan{
				addr:             w.nextAddr,
				supportsStapling: w.rng.Float64() < w.Cfg.StaplingHostProb,
				initialFresh:     w.rng.Float64() < w.Cfg.WarmStapleProb,
			}
		}
	}
	return p
}

// executePlan performs the planned issuance: the CA's book-keeping entry
// and the certificate's hosts. It draws nothing from the world RNG. The
// CA's own RNG (serials, skewed shard picks) is consumed under the CA
// lock, so per-authority execution order must match plan order.
func (w *World) executePlan(p *certPlan) {
	authority := p.authority
	profile := &authority.Profile
	rec := authority.CA.IssueRecord(ca.IssueOptions{
		CommonName: fmt.Sprintf("site-%d.%s.example", p.certIdx, strings.ToLower(profile.Name)),
		NotBefore:  p.issued,
		NotAfter:   p.notAfter,
		EV:         p.ev,
		OmitOCSP:   p.omitOCSP,
		OmitCRLDP:  p.omitCRL,
	})
	cs := &CertState{
		Rec:        rec,
		Authority:  authority,
		Reason:     crl.ReasonAbsent,
		activeIdx:  -1,
		poolIdx:    -1,
		Popular:    p.popular,
		PopularTop: p.popularTop,
	}
	if len(p.hosts) > 0 {
		cs.Hosts = make([]*host.SimHost, 0, len(p.hosts))
		for _, hp := range p.hosts {
			h := host.New(host.Config{
				Addr:               hp.addr,
				SupportsStapling:   hp.supportsStapling,
				InitialFresh:       hp.initialFresh,
				BackgroundWarmProb: w.Cfg.WarmStapleProb,
				RefreshProb:        0.5,
				Clock:              w.Clock.Now,
				Seed:               w.Cfg.Seed,
			})
			h.SetRecord(rec)
			cs.Hosts = append(cs.Hosts, h)
		}
	}
	p.cs = cs
}

// executePlans runs every plan, fanning out across a worker pool. Plans
// for one authority stay on a single goroutine in plan order, keeping
// each CA's serial stream deterministic; distinct authorities proceed
// concurrently.
func (w *World) executePlans(plans []*certPlan) {
	workers := w.parallelism()
	if workers <= 1 || len(plans) < 2 {
		for _, p := range plans {
			w.executePlan(p)
		}
		return
	}
	groups := make(map[*Authority][]*certPlan)
	var order []*Authority
	for _, p := range plans {
		if _, ok := groups[p.authority]; !ok {
			order = append(order, p.authority)
		}
		groups[p.authority] = append(groups[p.authority], p)
	}
	if workers > len(order) {
		workers = len(order)
	}
	work := make(chan []*certPlan)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				for _, p := range group {
					w.executePlan(p)
				}
			}
		}()
	}
	for _, a := range order {
		work <- groups[a]
	}
	close(work)
	wg.Wait()
}

// integratePlans merges executed plans into the world in plan order, so
// the certificate list, host list, active set, sampling pools, and
// expiry buckets are identical to what serial issuance would build.
func (w *World) integratePlans(plans []*certPlan) {
	for _, p := range plans {
		cs := p.cs
		if len(w.Certs) != p.certIdx {
			panic("workload: certificate plans integrated out of order")
		}
		w.Certs = append(w.Certs, cs)
		p.authority.poolAdd(cs)
		if p.advertise {
			w.Hosts = append(w.Hosts, cs.Hosts...)
			cs.Advertised = true
			w.activate(cs)
			w.expiring[dayKey(p.notAfter)] = append(w.expiring[dayKey(p.notAfter)], cs)
		}
	}
}
