package workload

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"time"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/revdb"
)

// Shard splits the feed into one independent per-issuer feed per parent
// SPKI group: the shard's adds/removes are the parent's own revocations
// (cascade keys carry the parent as their 32-byte prefix) and its
// VisitKnown streams only that issuer's certificates. The schedule is
// shared — every shard publishes on every crawl day, so the daily
// manifest can pin all of them at one epoch.
func (f *CascadeFeed) Shard() map[cascade.Parent]*CascadeFeed {
	shards := make(map[cascade.Parent]*CascadeFeed, len(f.Parents))
	for _, p := range f.Parents {
		parent := p
		sf := &CascadeFeed{
			Parents: []cascade.Parent{parent},
			Days:    f.Days,
			Adds:    make([][][]byte, len(f.Days)),
			Removes: make([][][]byte, len(f.Days)),
		}
		sf.VisitKnown = func(fn func(key []byte) bool) {
			f.VisitKnown(func(key []byte) bool {
				if len(key) < cascade.ParentSize || !bytes.Equal(key[:cascade.ParentSize], parent[:]) {
					return true
				}
				return fn(key)
			})
		}
		shards[parent] = sf
	}
	route := func(dst map[cascade.Parent]*CascadeFeed, day int, keys [][]byte, adds bool) {
		for _, k := range keys {
			var p cascade.Parent
			copy(p[:], k)
			sf, ok := dst[p]
			if !ok {
				continue
			}
			if adds {
				sf.Adds[day] = append(sf.Adds[day], k)
				sf.Revocations++
			} else {
				sf.Removes[day] = append(sf.Removes[day], k)
			}
		}
	}
	for day := range f.Days {
		route(shards, day, f.Adds[day], true)
		route(shards, day, f.Removes[day], false)
	}
	return shards
}

// ShardedSeries is the sharded counterpart of CascadeSeries: one
// per-issuer artifact chain per parent plus one signed manifest per day
// pinning every shard's bytes for that epoch. Clients verify the
// manifest, fetch only the shards of issuers they trust, and install
// with cascade.InstallShards.
type ShardedSeries struct {
	Days    []time.Time
	Parents []cascade.Parent // ascending, one per shard
	Shards  map[cascade.Parent]*CascadeSeries
	// Manifests[i] is the signed CASM manifest for Days[i].
	Manifests [][]byte
	PublicKey ed25519.PublicKey
}

// manifestSeed keys the deterministic manifest signer for reproducible
// worlds; real deployments load a key instead.
const manifestSeed = 0x5eed_ca5c_ade0_0001

// PublishSharded runs one publisher per issuer over the shard feeds and
// signs a daily manifest over all of them. kind is not read: there is one
// chain kind (see cascade.LevelKind).
func (f *CascadeFeed) PublishSharded(kind cascade.LevelKind) (*ShardedSeries, error) {
	feeds := f.Shard()
	priv := cascade.ManifestKeyFromSeed(manifestSeed)
	out := &ShardedSeries{
		Days:      f.Days,
		Parents:   append([]cascade.Parent(nil), f.Parents...),
		Shards:    make(map[cascade.Parent]*CascadeSeries, len(feeds)),
		Manifests: make([][]byte, len(f.Days)),
		PublicKey: priv.Public().(ed25519.PublicKey),
	}
	cascade.SortParents(out.Parents)

	type chain struct {
		pub    *cascade.Publisher
		series *CascadeSeries
	}
	chains := make(map[cascade.Parent]*chain, len(feeds))
	for p, sf := range feeds {
		chains[p] = &chain{
			pub: cascade.NewPublisher(cascade.PublishConfig{
				Parents:    sf.Parents,
				VisitKnown: sf.VisitKnown,
				MaxAge:     48 * time.Hour,
			}),
			series: &CascadeSeries{
				Days:          f.Days,
				Deltas:        make([][]byte, len(f.Days)),
				SnapshotSizes: make([]int, len(f.Days)),
			},
		}
	}
	for i, day := range f.Days {
		m := &cascade.Manifest{Epoch: uint32(i + 1), BuiltAt: day}
		for _, p := range out.Parents {
			c := chains[p]
			sf := feeds[p]
			snap, delta, err := c.pub.Advance(day, sf.Adds[i], sf.Removes[i])
			if err != nil {
				return nil, fmt.Errorf("shard %x day %s: %w", p[:4], day.Format("2006-01-02"), err)
			}
			if i == 0 {
				c.series.First = snap
			}
			c.series.Final = snap
			c.series.Deltas[i] = delta
			c.series.SnapshotSizes[i] = len(snap)
			e := cascade.ShardEntry{
				Parent:      p,
				Epoch:       uint32(i + 1),
				SnapshotCRC: cascade.CRC(snap),
				SnapshotLen: uint32(len(snap)),
			}
			if delta != nil {
				e.DeltaCRC = cascade.CRC(delta)
				e.DeltaLen = uint32(len(delta))
			}
			m.Shards = append(m.Shards, e)
		}
		signed, err := m.Sign(priv)
		if err != nil {
			return nil, fmt.Errorf("manifest day %s: %w", day.Format("2006-01-02"), err)
		}
		out.Manifests[i] = signed
	}
	for p, c := range chains {
		out.Shards[p] = c.series
	}
	return out, nil
}

// FinalSnapshots returns every shard's final snapshot keyed by parent —
// the map cascade.InstallShards consumes together with the final day's
// verified manifest.
func (s *ShardedSeries) FinalSnapshots() map[cascade.Parent][]byte {
	out := make(map[cascade.Parent][]byte, len(s.Shards))
	for p, c := range s.Shards {
		out[p] = c.Final
	}
	return out
}

// Install verifies the final manifest and installs the shards the trust
// predicate accepts (nil = all).
func (s *ShardedSeries) Install(trusted func(cascade.Parent) bool) (*cascade.ShardSet, error) {
	m, err := cascade.VerifyManifest(s.Manifests[len(s.Manifests)-1], s.PublicKey)
	if err != nil {
		return nil, err
	}
	return cascade.InstallShards(m, s.FinalSnapshots(), trusted)
}

// ClientBytes sums what a client trusting the given issuers downloads
// over the series: day-zero snapshots plus every later day's deltas,
// plus the daily manifest. trusted nil means all issuers.
func (s *ShardedSeries) ClientBytes(trusted func(cascade.Parent) bool) (total int, days int) {
	days = len(s.Days)
	for i := range s.Days {
		total += len(s.Manifests[i])
	}
	for p, c := range s.Shards {
		if trusted != nil && !trusted(p) {
			continue
		}
		total += len(c.First)
		for _, d := range c.Deltas {
			total += len(d)
		}
	}
	return total, days
}

// AuditCascadeShards is AuditCascade against an installed shard set: the
// union of trusted shards must agree with ground truth for every
// certificate whose issuer is installed; uninstalled issuers are skipped
// (the client has no local verdict for them, by design).
func (w *World) AuditCascadeShards(s *cascade.ShardSet, day time.Time) (CascadeAudit, error) {
	byURL, byName := w.parentMaps()
	shards := w.shardURLs()
	var a CascadeAudit
	var buf [96]byte
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		p, ok := byName[ct.CAName()]
		if !ok || s.Shard(p) == nil {
			return true
		}
		verdict := s.Revoked(cascade.AppendKey(buf[:0], p, ct.Serial()))
		truth := w.listedOn(shards[ct.CAName()], ct.Serial(), day)
		a.CertsChecked++
		if truth {
			a.RevokedInCorpus++
		}
		if verdict && !truth {
			a.FalsePositives++
		} else if !verdict && truth {
			a.FalseNegatives++
		}
		return true
	})
	w.RevDB.VisitEntries(func(e *revdb.Entry) bool {
		if e.LastSeen.Before(day) {
			return true
		}
		p := byURL[e.CRLURL]
		if s.Shard(p) == nil {
			return true
		}
		a.ListedRevocations++
		if !s.Revoked(cascade.AppendKey(buf[:0], p, e.Serial.Bytes())) {
			a.Missed++
		}
		return true
	})
	return a, nil
}
