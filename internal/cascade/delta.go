package cascade

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Delta wire format "CASD" version 1, little-endian:
//
//	magic       "CASD"        4
//	version     byte          1
//	baseEpoch   uint32        4
//	targetEpoch uint32        4
//	baseCRC     uint32        4   CRC-32C of the full base snapshot file
//	targetCRC   uint32        4   CRC-32C of the full target snapshot file
//	adds        uvarint 0     1   must be zero (see below)
//	removes     uvarint 0     1   must be zero
//	targetLen   uvarint
//	patch       ops over the base snapshot:
//	              0x00 copy    uvarint n       (n bytes from base)
//	              0x01 replace uvarint n, uvarint m, m literal bytes
//	                           (consume n base bytes, emit m)
//	crc         uint32 (CRC-32C over everything before it)
//
// The byte patch carries everything that changed: the header (epoch,
// counters), the stash entries appended to level 1's side list, the deep
// levels solved again, and — on a re-freeze epoch — level 1 itself.
// Removals need no bytes of their own: removed keys keep their level-1
// claim and flip to Good via the rebuilt level-2 whitelist. The two
// counts once prefixed key lists a client replayed into an all-Bloom
// level 1; they stay on the wire as zero bytes, so the layout and every
// delta's bytes are unchanged, and a delta whose count is not zero is
// rejected.
//
// None of this is trusted: Apply verifies the reconstructed bytes
// against targetCRC, so a hostile or corrupt patch can never yield a
// filter that differs from the published snapshot. baseCRC is the epoch
// fence: a client holding any snapshot other than the delta's exact base
// fails the fence instead of corrupting its filter.
const (
	deltaMagic   = "CASD"
	deltaVersion = 1
	// diffBlock is the granularity of the binary diff — an emitter
	// tuning knob only, since the copy/replace ops are self-describing
	// byte counts. Level-1 daily churn appends a few stash words; 16-byte
	// blocks ship ~16 bytes per touched spot against ~5 bytes of op
	// overhead per run — 64-byte blocks quadruple the literal cost of
	// every isolated change, and byte-granular runs drown small filters
	// in op framing.
	diffBlock = 16
	// maxPatchBytes bounds the reconstructed snapshot size.
	maxPatchBytes = 1 << 31
)

// delta is a parsed CASD file.
type delta struct {
	baseEpoch   uint32
	targetEpoch uint32
	baseCRC     uint32
	targetCRC   uint32
	targetLen   uint64
	patch       []byte // raw op stream
}

func readUvarint(b []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, pos, errors.New("cascade: bad varint in delta")
	}
	return v, pos + n, nil
}

func parseDelta(data []byte) (*delta, error) {
	if len(data) < 4+1+16+crcSize {
		return nil, errors.New("cascade: delta too short")
	}
	if string(data[:4]) != deltaMagic {
		return nil, errors.New("cascade: bad delta magic")
	}
	if data[4] != deltaVersion {
		return nil, fmt.Errorf("cascade: unsupported delta version %d", data[4])
	}
	body, crcField := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if CRC(body) != binary.LittleEndian.Uint32(crcField) {
		return nil, errors.New("cascade: delta CRC mismatch")
	}
	d := &delta{
		baseEpoch:   binary.LittleEndian.Uint32(data[5:]),
		targetEpoch: binary.LittleEndian.Uint32(data[9:]),
		baseCRC:     binary.LittleEndian.Uint32(data[13:]),
		targetCRC:   binary.LittleEndian.Uint32(data[17:]),
	}
	pos := 21
	var err error
	for _, list := range []string{"add", "remove"} {
		var n uint64
		if n, pos, err = readUvarint(body, pos); err != nil {
			return nil, err
		}
		if n != 0 {
			return nil, fmt.Errorf("cascade: delta %s count %d, want 0", list, n)
		}
	}
	d.targetLen, pos, err = readUvarint(body, pos)
	if err != nil {
		return nil, err
	}
	if d.targetLen > maxPatchBytes {
		return nil, fmt.Errorf("cascade: implausible delta target length %d", d.targetLen)
	}
	d.patch = body[pos:]
	return d, nil
}

// Apply reconstructs the target snapshot from base and a delta by
// running the byte patch over base. The epoch fence is enforced twice:
// the delta must name the base snapshot's epoch AND the CRC-32C of its
// exact bytes, and the reconstructed target must match the delta's
// target CRC. Any mismatch is an error and the base is left untouched — a
// client can never end up with a filter that differs from the published
// snapshot.
func Apply(base, deltaBytes []byte) ([]byte, error) {
	d, err := parseDelta(deltaBytes)
	if err != nil {
		return nil, err
	}
	if len(base) < headerSize+crcSize || string(base[:4]) != snapMagic {
		return nil, errors.New("cascade: apply base is not a snapshot")
	}
	if baseEpoch := binary.LittleEndian.Uint32(base[5:]); baseEpoch != d.baseEpoch {
		return nil, fmt.Errorf("cascade: delta wants base epoch %d, have %d", d.baseEpoch, baseEpoch)
	}
	if CRC(base) != d.baseCRC {
		return nil, errors.New("cascade: delta base CRC fence failed")
	}
	out := make([]byte, 0, d.targetLen)
	src, patch := 0, d.patch
	pos := 0
	for pos < len(patch) {
		op := patch[pos]
		pos++
		switch op {
		case 0x00: // copy
			n, next, err := readUvarint(patch, pos)
			if err != nil {
				return nil, err
			}
			pos = next
			if n == 0 || uint64(len(base)-src) < n || uint64(len(out))+n > d.targetLen {
				return nil, errors.New("cascade: delta copy out of range")
			}
			out = append(out, base[src:src+int(n)]...)
			src += int(n)
		case 0x01: // replace
			n, next, err := readUvarint(patch, pos)
			if err != nil {
				return nil, err
			}
			m, next, err := readUvarint(patch, next)
			if err != nil {
				return nil, err
			}
			pos = next
			if uint64(len(base)-src) < n || uint64(len(patch)-pos) < m || uint64(len(out))+m > d.targetLen {
				return nil, errors.New("cascade: delta replace out of range")
			}
			out = append(out, patch[pos:pos+int(m)]...)
			pos += int(m)
			src += int(n)
		default:
			return nil, fmt.Errorf("cascade: unknown delta op 0x%02x", op)
		}
	}
	if uint64(len(out)) != d.targetLen {
		return nil, errors.New("cascade: delta patch does not produce target length")
	}
	if CRC(out) != d.targetCRC {
		return nil, errors.New("cascade: delta target CRC fence failed")
	}
	return out, nil
}

// MakeDelta builds a delta taking base to target (both encoded
// snapshots): a function of the two files alone.
func MakeDelta(base, target []byte) ([]byte, error) {
	for _, s := range [][]byte{base, target} {
		if len(s) < headerSize+crcSize || string(s[:4]) != snapMagic {
			return nil, errors.New("cascade: MakeDelta input is not a snapshot")
		}
	}
	out := make([]byte, 0, 256)
	out = append(out, deltaMagic...)
	out = append(out, deltaVersion)
	out = binary.LittleEndian.AppendUint32(out, binary.LittleEndian.Uint32(base[5:]))
	out = binary.LittleEndian.AppendUint32(out, binary.LittleEndian.Uint32(target[5:]))
	out = binary.LittleEndian.AppendUint32(out, CRC(base))
	out = binary.LittleEndian.AppendUint32(out, CRC(target))
	out = append(out, 0, 0) // empty add and remove lists
	out = binary.AppendUvarint(out, uint64(len(target)))
	out = appendPatch(out, base, target)
	return binary.LittleEndian.AppendUint32(out, CRC(out)), nil
}

// appendPatch emits the block-aligned diff ops taking base to target.
func appendPatch(out, base, target []byte) []byte {
	common := len(base)
	if len(target) < common {
		common = len(target)
	}
	blocks := common / diffBlock
	emit := func(op byte, startBlock, runBlocks int) []byte {
		n := runBlocks * diffBlock
		out = append(out, op)
		if op == 0x00 {
			return binary.AppendUvarint(out, uint64(n))
		}
		out = binary.AppendUvarint(out, uint64(n))
		out = binary.AppendUvarint(out, uint64(n))
		return append(out, target[startBlock*diffBlock:startBlock*diffBlock+n]...)
	}
	for b := 0; b < blocks; {
		off := b * diffBlock
		equal := bytes.Equal(base[off:off+diffBlock], target[off:off+diffBlock])
		run := b + 1
		for run < blocks {
			o := run * diffBlock
			if bytes.Equal(base[o:o+diffBlock], target[o:o+diffBlock]) != equal {
				break
			}
			run++
		}
		if equal {
			out = emit(0x00, b, run-b)
		} else {
			out = emit(0x01, b, run-b)
		}
		b = run
	}
	// Tail: whatever falls past the last full common block, including
	// the entire length difference when the snapshots differ in size.
	tailBase, tailTarget := len(base)-blocks*diffBlock, len(target)-blocks*diffBlock
	if tailBase == 0 && tailTarget == 0 {
		return out
	}
	off := blocks * diffBlock
	if tailBase == tailTarget && bytes.Equal(base[off:], target[off:]) {
		out = append(out, 0x00)
		return binary.AppendUvarint(out, uint64(tailBase))
	}
	out = append(out, 0x01)
	out = binary.AppendUvarint(out, uint64(tailBase))
	out = binary.AppendUvarint(out, uint64(tailTarget))
	return append(out, target[off:]...)
}

// Compact merges a chain of deltas into one delta taking the chain's
// first base directly to its last target. Every fence in the chain is
// verified along the way (each delta is applied in sequence), then the
// patch is re-diffed base→final, so the compacted delta is typically far
// smaller than the chain's sum.
func Compact(base []byte, deltas [][]byte) ([]byte, error) {
	if len(deltas) == 0 {
		return nil, errors.New("cascade: nothing to compact")
	}
	cur := base
	for i, db := range deltas {
		next, err := Apply(cur, db)
		if err != nil {
			return nil, fmt.Errorf("cascade: compact delta %d: %w", i, err)
		}
		cur = next
	}
	return MakeDelta(base, cur)
}
