// Package workload generates the synthetic certificate ecosystem that
// stands in for the paper's internet-wide scan data: CAs with the market
// shares and CRL policies of Table 1, a certificate population with
// issuance, renewal, expiry, and revocation processes calibrated to the
// study's published aggregates (8% of fresh certificates revoked by the
// end, ~1% of alive ones, the Heartbleed mass-revocation event, RapidSSL's
// July 2012 OCSP adoption), hosts that advertise those certificates with
// realistic OCSP-stapling behaviour, and the daily CRL-crawl and CRLSet
// pipelines that feed the §5 and §7 analyses.
//
// Everything scales by Config.Scale: the experiment binaries run at 1/100
// of internet scale, the test suite smaller still. Scale-invariant
// quantities (fractions, ratios, who-beats-whom) are what the paper's
// figures report; EXPERIMENTS.md records where absolute numbers are
// extrapolated back to full scale.
package workload

import (
	"time"

	"repro/internal/simtime"
)

// CAProfile describes one certificate authority's full-scale footprint and
// policies.
type CAProfile struct {
	Name string
	// CRLShards and ShardSkew shape the CA's CRL population (Table 1's
	// "Unique CRLs" column and the weighted size distribution).
	CRLShards int
	ShardSkew float64
	// SerialBytes drives per-entry CRL size (§5.2 footnote 11).
	SerialBytes int
	// TotalCerts and RevokedCerts are the full-scale certificate counts
	// observed across the whole study (Table 1).
	TotalCerts   int
	RevokedCerts int
	// EVFraction is the share of issued certificates that are EV.
	EVFraction float64
	// OCSPAdoption is the date after which issued certificates carry an
	// OCSP pointer (Figure 4's adoption curves; RapidSSL's is July
	// 2012). Zero means always.
	OCSPAdoption time.Time
	// GoogleCrawled marks the CA's CRLs as visible to the CRLSet
	// generator's crawler. Google's internal list covers only a small
	// slice of the CRL universe, which is the single biggest driver of
	// CRLSet's 0.35% coverage (§7.2).
	GoogleCrawled bool
	// HeartbleedExposure is the fraction of this CA's fresh certificates
	// revoked in the weeks after Heartbleed.
	HeartbleedExposure float64
	// PreStudyRevokedFrac is the share of the CA's RevokedCerts budget
	// already revoked before the simulation starts (long-lived CRLs like
	// Apple's accumulated their millions of entries over years).
	PreStudyRevokedFrac float64
	// LongLivedCerts marks CAs issuing multi-year certificates (Apple's
	// developer certificates), so old revocations stay on the CRL.
	LongLivedCerts bool
}

// DefaultCAs returns the study's CA population: the nine largest CAs of
// Table 1 with their published certificate and CRL counts, plus the
// long-tail issuers whose giant CRLs dominate the byte distribution —
// Apple's 76 MB worldwide-developer-relations CRL with 2.6M entries and
// StartCom's 22 MB free-tier CRL (§5.2).
func DefaultCAs() []CAProfile {
	julyTwelve := simtime.Date(2012, time.July, 15)
	early := simtime.Date(2010, time.June, 1)
	return []CAProfile{
		{Name: "GoDaddy", CRLShards: 322, ShardSkew: 1.1, SerialBytes: 9,
			TotalCerts: 1050014, RevokedCerts: 277500, EVFraction: 0.03,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.22, PreStudyRevokedFrac: 0.40},
		{Name: "RapidSSL", CRLShards: 5, ShardSkew: 0, SerialBytes: 7,
			TotalCerts: 626774, RevokedCerts: 2153, EVFraction: 0,
			OCSPAdoption: julyTwelve, GoogleCrawled: true, HeartbleedExposure: 0.002, PreStudyRevokedFrac: 0.45},
		{Name: "Comodo", CRLShards: 30, ShardSkew: 1.3, SerialBytes: 16,
			TotalCerts: 447506, RevokedCerts: 7169, EVFraction: 0.05,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.01, PreStudyRevokedFrac: 0.45},
		{Name: "PositiveSSL", CRLShards: 3, ShardSkew: 0.8, SerialBytes: 16,
			TotalCerts: 415075, RevokedCerts: 8177, EVFraction: 0,
			OCSPAdoption: early, GoogleCrawled: false, HeartbleedExposure: 0.012, PreStudyRevokedFrac: 0.45},
		{Name: "GeoTrust", CRLShards: 27, ShardSkew: 0, SerialBytes: 7,
			TotalCerts: 335380, RevokedCerts: 3081, EVFraction: 0.04,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.005, PreStudyRevokedFrac: 0.45},
		{Name: "Verisign", CRLShards: 37, ShardSkew: 1.0, SerialBytes: 16,
			TotalCerts: 311788, RevokedCerts: 15438, EVFraction: 0.12,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.03, PreStudyRevokedFrac: 0.45},
		{Name: "Thawte", CRLShards: 32, ShardSkew: 0, SerialBytes: 8,
			TotalCerts: 278563, RevokedCerts: 4446, EVFraction: 0.05,
			OCSPAdoption: early, GoogleCrawled: false, HeartbleedExposure: 0.008, PreStudyRevokedFrac: 0.45},
		{Name: "GlobalSign", CRLShards: 26, ShardSkew: 1.6, SerialBytes: 21,
			TotalCerts: 247819, RevokedCerts: 24242, EVFraction: 0.06,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.06, PreStudyRevokedFrac: 0.45},
		{Name: "StartCom", CRLShards: 17, ShardSkew: 1.8, SerialBytes: 8,
			TotalCerts: 236776, RevokedCerts: 1752, EVFraction: 0.01,
			OCSPAdoption: early, GoogleCrawled: false, HeartbleedExposure: 0.004, PreStudyRevokedFrac: 0.45},
		// StartSSL "Free": one 22 MB CRL of fee-gated revocations
		// (§5.2 footnote 14) — too big for CRLSets.
		{Name: "StartSSL-Free", CRLShards: 1, SerialBytes: 8,
			TotalCerts: 320000, RevokedCerts: 290000, EVFraction: 0,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.0,
			PreStudyRevokedFrac: 0.75, LongLivedCerts: true},
		// Apple's worldwide developer relations CA: 2.6M revocations on
		// a single 76 MB CRL (§5.2 footnote 13). Its certificates are
		// not public web servers, so they never appear in scans, but
		// the CRL dominates the raw byte distribution.
		{Name: "Apple-WWDR", CRLShards: 1, SerialBytes: 9,
			TotalCerts: 4000000, RevokedCerts: 2600000, EVFraction: 0,
			OCSPAdoption: early, GoogleCrawled: true, HeartbleedExposure: 0.0,
			PreStudyRevokedFrac: 0.80, LongLivedCerts: true},
		// The long tail: hundreds of small CAs, aggregated.
		{Name: "OtherCAs", CRLShards: 60, ShardSkew: 0.5, SerialBytes: 12,
			TotalCerts: 1100000, RevokedCerts: 180000, EVFraction: 0.02,
			OCSPAdoption:  simtime.Date(2011, time.September, 1),
			GoogleCrawled: false, HeartbleedExposure: 0.10, PreStudyRevokedFrac: 0.45},
	}
}

// WebCA reports whether the CA's certificates appear on public web servers
// (Apple's developer certificates do not; its CRL still gets crawled).
func (p *CAProfile) WebCA() bool { return p.Name != "Apple-WWDR" }
