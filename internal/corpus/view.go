package corpus

import "time"

// Cert is a cursor over one certificate's columns. It is only valid for
// the duration of the Visit/IterAlive callback that
// received it; callers must not retain it. Accessors read the columns
// directly without re-locking — the iteration holds the read lock.
type Cert struct {
	c  *Corpus
	id uint32
}

// ID returns the certificate's dense corpus ID.
func (ct *Cert) ID() uint32 { return ct.id }

// CAName returns the issuing CA's name.
func (ct *Cert) CAName() string { return ct.c.caSyms.get(uint32(ct.c.cols.caSym[ct.id])) }

// Serial returns the certificate serial's big-endian magnitude. Callers
// must not mutate the returned slice.
func (ct *Cert) Serial() []byte { return ct.c.cols.serial(ct.id) }

// CRLURL returns the CRL distribution point URL ("" if none).
func (ct *Cert) CRLURL() string { return ct.c.urlSyms.get(ct.c.cols.crlSym[ct.id]) }

// OCSPURL returns the OCSP responder URL ("" if none).
func (ct *Cert) OCSPURL() string { return ct.c.urlSyms.get(ct.c.cols.ocspSym[ct.id]) }

// EV reports whether the certificate is extended-validation.
func (ct *Cert) EV() bool { return ct.c.cols.flags[ct.id]&flagEV != 0 }

// HasCRLDP reports whether the certificate carries a CRL pointer.
func (ct *Cert) HasCRLDP() bool { return ct.c.cols.flags[ct.id]&flagCRLDP != 0 }

// HasOCSP reports whether the certificate carries an OCSP pointer.
func (ct *Cert) HasOCSP() bool { return ct.c.cols.flags[ct.id]&flagOCSP != 0 }

// NotBefore returns the start of the validity window.
func (ct *Cert) NotBefore() time.Time { return time.Unix(0, ct.c.cols.notBefore[ct.id]).UTC() }

// NotAfter returns the end of the validity window.
func (ct *Cert) NotAfter() time.Time { return time.Unix(0, ct.c.cols.notAfter[ct.id]).UTC() }

// BirthScan returns the index of the first scan that saw the certificate.
func (ct *Cert) BirthScan() int { return int(ct.c.cols.birth[ct.id]) }

// DeathScan returns the index of the last scan that saw the certificate.
func (ct *Cert) DeathScan() int { return int(ct.c.cols.death[ct.id]) }

// Birth returns the first scan time at which the certificate was seen.
func (ct *Cert) Birth() time.Time { return ct.c.scans[ct.c.cols.birth[ct.id]] }

// Death returns the last scan time at which the certificate was seen.
func (ct *Cert) Death() time.Time { return ct.c.scans[ct.c.cols.death[ct.id]] }

// Sightings returns how many scans observed the certificate.
func (ct *Cert) Sightings() int { return int(ct.c.cols.nSight[ct.id]) }

// LastHosts returns the host count from the certificate's final sighting.
func (ct *Cert) LastHosts() int { return int(ct.c.cols.lastHosts[ct.id]) }

// LastStapledHosts returns the stapled-host count from the final sighting.
func (ct *Cert) LastStapledHosts() int { return int(ct.c.cols.lastStap[ct.id]) }

// FreshAt reports whether t falls inside the validity window.
func (ct *Cert) FreshAt(t time.Time) bool {
	tn := t.UnixNano()
	return ct.c.cols.notBefore[ct.id] <= tn && tn <= ct.c.cols.notAfter[ct.id]
}

// AliveAt reports whether t falls inside [Birth, Death].
func (ct *Cert) AliveAt(t time.Time) bool {
	tn := t.UnixNano()
	return ct.c.scansNano[ct.c.cols.birth[ct.id]] <= tn && tn <= ct.c.scansNano[ct.c.cols.death[ct.id]]
}

// AdvertisedAfterExpiry reports whether the certificate was still being
// served after NotAfter — the "atypical certificate" of Figure 1.
func (ct *Cert) AdvertisedAfterExpiry() bool {
	return ct.c.scansNano[ct.c.cols.death[ct.id]] > ct.c.cols.notAfter[ct.id]
}

// Visit walks every certificate in ID (first-seen) order under the read
// lock. Return false from fn to stop early. The *Cert is reused across
// calls; do not retain it.
func (c *Corpus) Visit(fn func(ct *Cert) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ct := Cert{c: c}
	for id := 0; id < c.cols.n(); id++ {
		ct.id = uint32(id)
		if !fn(&ct) {
			return
		}
	}
}

// IterAlive walks the certificates alive at t in ID order. Return false
// from fn to stop early.
func (c *Corpus) IterAlive(t time.Time, fn func(ct *Cert) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tn := t.UnixNano()
	ct := Cert{c: c}
	for id := 0; id < c.cols.n(); id++ {
		if c.scansNano[c.cols.birth[id]] <= tn && tn <= c.scansNano[c.cols.death[id]] {
			ct.id = uint32(id)
			if !fn(&ct) {
				return
			}
		}
	}
}
