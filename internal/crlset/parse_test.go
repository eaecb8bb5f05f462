package crlset

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/serialx"
)

// parse decodes a CRLSet produced by Marshal. Nothing in the program reads
// a CRLSet back; the tests and FuzzParseCRLSet hold Marshal's output to
// Chrome's wire format through it.
func parse(data []byte) (*Set, error) {
	if len(data) < 2 {
		return nil, errors.New("crlset: short input")
	}
	hlen := int(binary.LittleEndian.Uint16(data))
	if len(data) < 2+hlen {
		return nil, errors.New("crlset: truncated header")
	}
	var h header
	if err := json.Unmarshal(data[2:2+hlen], &h); err != nil {
		return nil, fmt.Errorf("crlset: header: %v", err)
	}
	if h.ContentType != "CRLSet" {
		return nil, fmt.Errorf("crlset: content type %q", h.ContentType)
	}
	s := NewSet(h.Sequence)
	pos := 2 + hlen
	for i := 0; i < h.NumParents; i++ {
		if pos+36 > len(data) {
			return nil, errors.New("crlset: truncated parent")
		}
		var p Parent
		copy(p[:], data[pos:pos+32])
		pos += 32
		count := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		// Each serial costs at least its length byte: a count beyond the
		// remaining input is corrupt, and must be rejected before any
		// count-sized allocation (a flipped bit in the count field must
		// not make parse allocate gigabytes).
		if count < 0 || count > len(data)-pos {
			return nil, fmt.Errorf("crlset: implausible serial count %d", count)
		}
		s.order = append(s.order, p)
		list := make([]string, 0, count)
		set := make(map[string]bool, count)
		for j := 0; j < count; j++ {
			if pos >= len(data) {
				return nil, errors.New("crlset: truncated serial length")
			}
			n := int(data[pos])
			pos++
			if pos+n > len(data) {
				return nil, errors.New("crlset: truncated serial")
			}
			// Canonicalize on ingest: a file encoding the same serial
			// value with leading zeros must land on the same entry a
			// canonical probe looks up.
			key := string(serialx.Canon(data[pos : pos+n]))
			list = append(list, key)
			set[key] = true
			pos += n
		}
		s.parents[p] = list
		s.lookup[p] = set
	}
	for i := 0; i < h.BlockedSPKI; i++ {
		if pos+32 > len(data) {
			return nil, errors.New("crlset: truncated blocked SPKI")
		}
		var p Parent
		copy(p[:], data[pos:pos+32])
		s.BlockedSPKIs = append(s.BlockedSPKIs, p)
		pos += 32
	}
	if pos != len(data) {
		return nil, errors.New("crlset: trailing bytes")
	}
	return s, nil
}
