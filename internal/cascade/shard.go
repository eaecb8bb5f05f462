package cascade

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// ShardSet is a client-side collection of per-issuer cascade shards: one
// Filter per enrolled parent SPKI group, installed together and probed
// by routing each verdict to the shard owning the certificate's issuer.
// Sharding is the delivery-side win the paper's bandwidth argument asks
// for — a client only fetches (and stores) the shards of issuers it
// actually trusts and encounters, so the per-client bytes/day drop by
// the untrusted share of the revocation mass (at seed scale the bulk of
// R sits under a single non-web issuer).
//
// A ShardSet is immutable and safe for concurrent use.
type ShardSet struct {
	byParent map[Parent]*Filter
}

// NewShardSet assembles installed shards. Every shard must carry at
// least one parent and no parent may appear in two shards — the shard
// is authoritative for its parents, so overlap would make verdicts
// depend on probe order.
func NewShardSet(shards []*Filter) (*ShardSet, error) {
	s := &ShardSet{byParent: make(map[Parent]*Filter)}
	for i, f := range shards {
		if f == nil {
			return nil, fmt.Errorf("cascade: shard %d is nil", i)
		}
		if f.NumParents() == 0 {
			return nil, fmt.Errorf("cascade: shard %d has no parents", i)
		}
		for j := 0; j < f.NumParents(); j++ {
			var p Parent
			copy(p[:], f.parents[j*ParentSize:])
			if _, dup := s.byParent[p]; dup {
				return nil, fmt.Errorf("cascade: parent %x in two shards", p[:4])
			}
			s.byParent[p] = f
		}
	}
	return s, nil
}

// Shard returns the filter owning parent p, or nil if no installed
// shard covers it (an untrusted or never-fetched issuer — the client
// falls back to the network exactly as for an un-enrolled parent).
func (s *ShardSet) Shard(p Parent) *Filter { return s.byParent[p] }

// Revoked routes the verdict to the shard owning the key's parent
// prefix. Only meaningful for keys whose parent Covers — same contract
// as Filter.Revoked. Zero allocations.
func (s *ShardSet) Revoked(key []byte) bool {
	if len(key) < ParentSize {
		return false
	}
	var p Parent
	copy(p[:], key)
	f := s.byParent[p]
	return f != nil && f.Revoked(key)
}

// InstallShards verifies and decodes published shard snapshots against a
// verified manifest, keeping only those the trust predicate accepts
// (nil means install everything listed). Each snapshot must match its
// manifest entry's CRC and length — a swapped or tampered artifact is
// rejected even though it would decode. Missing trusted shards are an
// error; extra snapshots the manifest does not list are ignored.
func InstallShards(m *Manifest, snapshots map[Parent][]byte, trusted func(Parent) bool) (*ShardSet, error) {
	var filters []*Filter
	for i := range m.Shards {
		e := &m.Shards[i]
		if trusted != nil && !trusted(e.Parent) {
			continue
		}
		raw, ok := snapshots[e.Parent]
		if !ok {
			return nil, fmt.Errorf("cascade: manifest shard %x has no snapshot", e.Parent[:4])
		}
		if len(raw) != int(e.SnapshotLen) || CRC(raw) != e.SnapshotCRC {
			return nil, fmt.Errorf("cascade: shard %x snapshot does not match manifest", e.Parent[:4])
		}
		f, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("cascade: shard %x: %w", e.Parent[:4], err)
		}
		if !f.EnrolledParent(e.Parent) {
			return nil, fmt.Errorf("cascade: shard %x does not enroll its manifest parent", e.Parent[:4])
		}
		filters = append(filters, f)
	}
	if len(filters) == 0 {
		return nil, errors.New("cascade: no trusted shards to install")
	}
	return NewShardSet(filters)
}

// SortParents orders a parent list ascending — the canonical order for
// manifests and shard artifacts.
func SortParents(ps []Parent) {
	sort.Slice(ps, func(i, j int) bool { return bytes.Compare(ps[i][:], ps[j][:]) < 0 })
}
