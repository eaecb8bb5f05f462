package cascade

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"repro/internal/ribbon"
)

// Snapshot wire format "CASC" version 2, little-endian:
//
//	magic      "CASC"            4
//	version    byte              1   always 2
//	epoch      uint32            4
//	builtUnix  int64             8
//	cutoffUnix int64             8
//	maxAgeSecs uint32            4
//	nRevoked   uint32            4
//	nParents   uint32            4
//	nLevels    uint32            4
//	parents    nParents × 32         strictly ascending
//	levels     nLevels × {kind byte, payload, side}
//	             kind 0 (Bloom):  k uint32, mBits uint64, bits ⌈mBits/8⌉
//	             kind 1 (ribbon): ribbon wire form (see internal/ribbon)
//	             side: count uint32, count × uint32 (publisher order;
//	                   count must be 0 on Bloom levels); level 1 only:
//	                   zero padding out to sideCapEntries(count) entries
//	                   (derived from count, not a wire field)
//	crc        uint32 (CRC-32C)  4   over everything before it
//
// Level 1 is always a ribbon; a deep level is whichever of the two kinds
// encodes smaller for its key count. Version 1, the all-Bloom encoding
// older builds wrote, is no longer decoded.
//
// A level's side list holds truncated 32-bit hashes (ribbon.Hash64 low
// word) of member keys the level must claim beyond its filter bits: rows
// the ribbon solver bumped, plus keys the publisher stashed since its
// last level-1 freeze. Truncation is sound — a member always finds its
// own hash, so no false negative; a collision is a false positive the
// next level whitelists — and halves the bytes every stash append ships.
// Entries appear in the publisher's append order (bumped rows sorted at
// freeze time, then stash entries as they arrived), not sorted; the
// list rides inline right after its level's payload, and level 1's is
// zero-padded to a quantized capacity. All three choices are
// deliberately delta-friendly: between freezes the list only grows at
// its tail (no re-sorted prefix to re-ship), it sits before the deep
// levels that are rebuilt whenever R changes (a deep-level size change
// never shifts it), and the padding keeps the file positions of
// everything after it fixed until the capacity steps up a quantum — so the
// day-to-day binary delta (delta.go) ships the few appended entries
// plus whatever deep-level bytes genuinely changed, never a shifted
// tail of unchanged bytes.
// Lookups sort a decoded copy in memory. Padding must be zero: a
// nonzero pad word is non-canonical (re-encoding would not reproduce
// the bytes) and is rejected, so re-encoding any accepted input
// reproduces its bytes.
//
// The layout is mmap-friendly: Decode keeps the parent list, level bit
// arrays, ribbon planes and side lists as subslices of the input (zero
// copy), so a client can map the file and probe straight from the page
// cache.
const (
	snapMagic       = "CASC"
	snapVersion     = 2
	headerSize      = 4 + 1 + 4 + 8 + 8 + 4 + 4 + 4 + 4
	levelHeaderSize = 4 + 8
	sideCountSize   = 4
	crcSize         = 4

	// maxParents, maxLevelBytes and maxSideEntries bound decoded sizes:
	// a flipped bit in a count field must be rejected as corruption, not
	// obeyed as an allocation request. (Decode is zero-copy, but the
	// bounds also stop absurd probe loops.) maxLevelBytes is explicitly
	// int64: 1<<32 overflows int on 32-bit platforms, so every byte-count
	// comparison happens in int64 *before* any conversion to int.
	maxParents           = 1 << 24
	maxLevelBytes  int64 = 1 << 32
	maxSideEntries       = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sideCapEntries is the padded entry capacity of a side list holding n
// entries on level idx (0-based). Derived from (count, level) on both
// ends of the wire, so it costs no field; its job is delta stability —
// everything after level 1's growing side list keeps its file position
// until the capacity steps, instead of shifting 4 bytes per appended
// stash entry. Only level 1 pads: the deep levels after it are rebuilt
// whenever R changes anyway, so padding their sides would spend snapshot
// bytes for no delta win. The quantum grows geometrically with the count
// (count/8 rounded to a power of two, floor 16), bounding the padding
// overhead at ~25% while keeping capacity steps — each one a one-time
// re-ship of the deep tail — rare.
func sideCapEntries(n, idx int) int {
	if n <= 0 || idx != 0 {
		return max(n, 0)
	}
	q := 16
	for q*8 <= n {
		q <<= 1
	}
	return (n + q - 1) / q * q
}

// CRC returns the CRC-32C of an encoded snapshot (or any byte string).
// Deltas fence on this value: a delta names the CRC of both its base and
// its target snapshot files.
func CRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Digest returns an order-sensitive 64-bit digest (FNV-1a) of an encoded
// artifact; tests and tooling use it to prove byte-identity cheaply.
func Digest(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Encode serializes the filter in its canonical CASC form.
func (f *Filter) Encode() []byte {
	out := make([]byte, 0, f.SizeBytes())
	out = append(out, snapMagic...)
	out = append(out, snapVersion)
	out = binary.LittleEndian.AppendUint32(out, f.epoch)
	out = binary.LittleEndian.AppendUint64(out, uint64(f.builtAt))
	out = binary.LittleEndian.AppendUint64(out, uint64(f.cutoff))
	out = binary.LittleEndian.AppendUint32(out, f.maxAge)
	out = binary.LittleEndian.AppendUint32(out, f.nRevoked)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.parents)/ParentSize))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.levels)))
	out = append(out, f.parents...)
	for i := range f.levels {
		l := &f.levels[i]
		out = append(out, byte(l.kind))
		if l.kind == kindRibbon {
			out = l.rib.AppendEncode(out)
		} else {
			out = binary.LittleEndian.AppendUint32(out, l.k)
			out = binary.LittleEndian.AppendUint64(out, l.mBits)
			out = append(out, l.bits...)
		}
		count := len(l.side) / 4
		out = binary.LittleEndian.AppendUint32(out, uint32(count))
		out = append(out, l.side...)
		out = append(out, make([]byte, (sideCapEntries(count, i)-count)*4)...)
	}
	return binary.LittleEndian.AppendUint32(out, CRC(out))
}

// decodeBloomLevel parses one Bloom level body at body[pos:], returning
// the level and the new position. Bounds are checked in int64 before any
// int conversion so hostile mBits cannot wrap on 32-bit platforms.
func decodeBloomLevel(body []byte, pos, idx int) (level, int, error) {
	if len(body)-pos < levelHeaderSize {
		return level{}, pos, errors.New("cascade: truncated level header")
	}
	k := binary.LittleEndian.Uint32(body[pos:])
	mBits := binary.LittleEndian.Uint64(body[pos+4:])
	pos += levelHeaderSize
	if k < 1 || k > maxLevels {
		return level{}, pos, fmt.Errorf("cascade: level %d hash count %d outside [1,%d]", idx+1, k, maxLevels)
	}
	if mBits < 1 || mBits > uint64(maxLevelBytes)*8 {
		return level{}, pos, fmt.Errorf("cascade: level %d size %d bits out of range", idx+1, mBits)
	}
	bLen64 := int64((mBits + 7) / 8)
	if bLen64 > int64(len(body)-pos) {
		return level{}, pos, errors.New("cascade: truncated level bits")
	}
	bLen := int(bLen64)
	lv := level{k: k, mBits: mBits, bits: body[pos : pos+bLen]}
	return lv, pos + bLen, nil
}

// Decode parses a CASC snapshot. The returned Filter aliases data — the
// caller must not mutate the buffer while the filter is live. Every
// structural invariant is checked: any truncation, bit flip (CRC), or
// semantically hostile field (a version other than 2, out-of-range hash
// counts, unsorted parents, level sizes that disagree with the byte
// count, a level 1 that is not a ribbon) is an error, never a panic or a
// silently wrong filter.
func Decode(data []byte) (*Filter, error) {
	if len(data) < headerSize+crcSize {
		return nil, errors.New("cascade: snapshot too short")
	}
	if string(data[:4]) != snapMagic {
		return nil, errors.New("cascade: bad snapshot magic")
	}
	if data[4] != snapVersion {
		return nil, fmt.Errorf("cascade: unsupported snapshot version %d", data[4])
	}
	body, crcField := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if CRC(body) != binary.LittleEndian.Uint32(crcField) {
		return nil, errors.New("cascade: snapshot CRC mismatch")
	}
	f := &Filter{
		epoch:    binary.LittleEndian.Uint32(data[5:]),
		builtAt:  int64(binary.LittleEndian.Uint64(data[9:])),
		cutoff:   int64(binary.LittleEndian.Uint64(data[17:])),
		maxAge:   binary.LittleEndian.Uint32(data[25:]),
		nRevoked: binary.LittleEndian.Uint32(data[29:]),
	}
	nParents := binary.LittleEndian.Uint32(data[33:])
	nLevels := binary.LittleEndian.Uint32(data[37:])
	if nParents > maxParents {
		return nil, fmt.Errorf("cascade: implausible parent count %d", nParents)
	}
	if nLevels < 1 || nLevels > maxLevels {
		return nil, fmt.Errorf("cascade: level count %d outside [1,%d]", nLevels, maxLevels)
	}
	pos := headerSize
	pLen := int(nParents) * ParentSize
	if len(body)-pos < pLen {
		return nil, errors.New("cascade: truncated parent list")
	}
	f.parents = body[pos : pos+pLen]
	for i := ParentSize; i < pLen; i += ParentSize {
		if string(f.parents[i-ParentSize:i]) >= string(f.parents[i:i+ParentSize]) {
			return nil, errors.New("cascade: parent list not strictly ascending")
		}
	}
	pos += pLen
	f.levels = make([]level, nLevels)
	for i := range f.levels {
		if len(body)-pos < 1 {
			return nil, errors.New("cascade: truncated level kind")
		}
		kind := levelKind(body[pos])
		pos++
		if i == 0 && kind != kindRibbon {
			return nil, fmt.Errorf("cascade: level 1 is kind %d, not a ribbon", kind)
		}
		switch kind {
		case kindBloom:
			lv, next, err := decodeBloomLevel(body, pos, i)
			if err != nil {
				return nil, err
			}
			f.levels[i], pos = lv, next
		case kindRibbon:
			rib, n, err := ribbon.DecodePrefix(body[pos:])
			if err != nil {
				return nil, fmt.Errorf("cascade: level %d: %w", i+1, err)
			}
			f.levels[i] = level{kind: kindRibbon, rib: rib}
			pos += n
		default:
			return nil, fmt.Errorf("cascade: level %d unknown kind %d", i+1, kind)
		}
		if len(body)-pos < sideCountSize {
			return nil, errors.New("cascade: truncated side-list count")
		}
		count := binary.LittleEndian.Uint32(body[pos:])
		pos += sideCountSize
		if count == 0 {
			continue
		}
		if kind != kindRibbon {
			return nil, errors.New("cascade: side list on a Bloom level")
		}
		if count > maxSideEntries {
			return nil, fmt.Errorf("cascade: implausible side-list count %d", count)
		}
		capLen64 := int64(sideCapEntries(int(count), i)) * 4
		if capLen64 > int64(len(body)-pos) {
			return nil, errors.New("cascade: truncated side list")
		}
		sLen := int(count) * 4
		side := body[pos : pos+sLen]
		for _, b := range body[pos+sLen : pos+int(capLen64)] {
			if b != 0 {
				return nil, errors.New("cascade: nonzero side-list padding")
			}
		}
		f.levels[i].side = side
		f.levels[i].sideSorted = sortSide(side)
		pos += int(capLen64)
	}
	if pos != len(body) {
		return nil, errors.New("cascade: trailing bytes after levels")
	}
	return f, nil
}
