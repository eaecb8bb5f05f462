// Package crlset implements Google's CRLSet mechanism (§7): the binary
// format Chrome ships (a JSON header followed by per-parent serial lists,
// where a parent is the SHA-256 of an issuer's SubjectPublicKeyInfo), the
// documented generation rules (250 KB size cap, CRLSet-eligible reason
// codes only, oversized CRLs dropped), and the timeline machinery behind
// the coverage and dynamics analyses of §7.2–7.3.
package crlset

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/serialx"
)

// MaxBytes is Google's documented cap on the CRLSet file size.
const MaxBytes = 250 * 1024

// Parent identifies an issuing key: SHA-256 of its SubjectPublicKeyInfo.
type Parent [32]byte

// Set is one CRLSet snapshot.
type Set struct {
	// Sequence is the CRLSet's version counter.
	Sequence int
	parents  map[Parent][]string // serial bytes (raw big-endian)
	lookup   map[Parent]map[string]bool
	order    []Parent
	// BlockedSPKIs lists leaf keys blocked outright (the ~11-entry list
	// §7.1 footnote 26 describes).
	BlockedSPKIs []Parent
}

// NewSet returns an empty CRLSet with the given sequence number.
func NewSet(sequence int) *Set {
	return &Set{
		Sequence: sequence,
		parents:  make(map[Parent][]string),
		lookup:   make(map[Parent]map[string]bool),
	}
}

// Add inserts a revoked serial under a parent. Duplicate serials for the
// same parent are ignored.
func (s *Set) Add(p Parent, serial *big.Int) {
	s.AddSerial(p, serial.Bytes())
}

// AddSerial is Add keyed by the compact big-endian serial magnitude (what
// crl.Entry.Serial holds). The serial is canonicalized first (leading
// zero octets stripped, the zero serial stored as the empty string —
// serialx.Canon), so two encodings of the same serial value always land
// on the same entry. The bytes are interned on first insertion; the
// duplicate check does not allocate.
func (s *Set) AddSerial(p Parent, serial []byte) {
	serial = serialx.Canon(serial)
	set, known := s.lookup[p]
	if !known {
		set = make(map[string]bool)
		s.lookup[p] = set
		s.order = append(s.order, p)
	}
	if set[string(serial)] {
		return
	}
	key := string(serial)
	set[key] = true
	s.parents[p] = append(s.parents[p], key)
}

// AddParent marks p as covered by the set even when no serials are
// revoked under it — real CRLSets carry many such empty parents (a CA
// with an empty CRL is still authoritatively covered, so clients skip
// the online check for its children). No-op when p is already present.
func (s *Set) AddParent(p Parent) {
	if _, known := s.lookup[p]; known {
		return
	}
	s.lookup[p] = make(map[string]bool)
	s.parents[p] = nil
	s.order = append(s.order, p)
}

// Covers reports whether the set revokes (parent, serial).
func (s *Set) Covers(p Parent, serial *big.Int) bool {
	return s.lookup[p][string(serial.Bytes())]
}

// CoversSerial is Covers keyed by the compact serial magnitude; it does
// not allocate. The probe is canonicalized exactly like AddSerial, so a
// leading-zero or zero-length encoding of a stored serial still matches.
func (s *Set) CoversSerial(p Parent, serial []byte) bool {
	return s.lookup[p][string(serialx.Canon(serial))]
}

// HasParent reports whether any entry exists for parent p.
func (s *Set) HasParent(p Parent) bool {
	_, ok := s.parents[p]
	return ok
}

// NumParents returns the count of distinct parents.
func (s *Set) NumParents() int { return len(s.order) }

// NumEntries returns the total revocation count.
func (s *Set) NumEntries() int {
	n := 0
	for _, list := range s.parents {
		n += len(list)
	}
	return n
}

// header is the JSON preamble of the wire format.
type header struct {
	ContentType string `json:"ContentType"`
	Sequence    int    `json:"Sequence"`
	NumParents  int    `json:"NumParents"`
	BlockedSPKI int    `json:"BlockedSPKIs"`
}

// Marshal encodes the set in Chrome's CRLSet wire format: a uint16
// little-endian header length, a JSON header, then for each parent a
// 32-byte SPKI hash, a uint32 LE serial count, and length-prefixed
// serials; blocked SPKIs follow as raw 32-byte hashes.
func (s *Set) Marshal() ([]byte, error) {
	h, err := json.Marshal(header{
		ContentType: "CRLSet",
		Sequence:    s.Sequence,
		NumParents:  len(s.order),
		BlockedSPKI: len(s.BlockedSPKIs),
	})
	if err != nil {
		return nil, err
	}
	if len(h) > 0xffff {
		return nil, errors.New("crlset: header too large")
	}
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(h)))
	out = append(out, h...)
	for _, p := range s.order {
		out = append(out, p[:]...)
		list := s.parents[p]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(list)))
		for _, serial := range list {
			if len(serial) > 255 {
				return nil, fmt.Errorf("crlset: serial of %d bytes", len(serial))
			}
			out = append(out, byte(len(serial)))
			out = append(out, serial...)
		}
	}
	for _, spki := range s.BlockedSPKIs {
		out = append(out, spki[:]...)
	}
	return out, nil
}

// Size returns the marshaled byte size.
func (s *Set) Size() int {
	b, err := s.Marshal()
	if err != nil {
		return 0
	}
	return len(b)
}

// sortedParents returns parents in deterministic (byte) order — generation
// must be reproducible run to run.
func sortedParents(m map[Parent][]serialEntry) []Parent {
	out := make([]Parent, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}
