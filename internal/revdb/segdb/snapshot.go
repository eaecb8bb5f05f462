package segdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// sparseIndexEvery is the stride the writer gives a snapshot's sparse
// index: one indexed offset per 32 sorted entries, a quarter byte of index
// per entry. A reader takes the stride from the segment's own meta.
const sparseIndexEvery = 32

// snapshotView is one mmap'd snapshot segment plus the small side tables
// (URL names, sparse offsets) loaded at open. The entries block itself is
// never materialized: lookups binary-search the sparse offsets and decode
// at most sparseEvery records straight from the mapping.
type snapshotView struct {
	f    *os.File
	data []byte
	gen  uint64

	coveredSeq  uint64
	urlNames    []string
	entryCount  int
	nextID      uint32
	count       int
	sparseEvery int

	entriesOff int
	entriesEnd int
	// sparse holds the absolute offset of every sparseEvery-th entry of
	// the sorted entries block.
	sparse []int
	// filter short-circuits find for keys definitely absent from this
	// segment; built during the fold (or the open-time visit), never
	// persisted.
	filter *absenceFilter
}

// entryRec is one decoded snapshot entry.
type entryRec struct {
	urlID     uint32
	serial    []byte // aliases the mapping; copy to retain
	id        uint32
	revokedAt int64
	reason    int64
	firstSeen int64
	lastSeen  int64
	present   bool
}

// footer layout: 6 little-endian uint64 block offsets, uint32 CRC32-C
// over every preceding byte of the file, 8-byte end magic.
const snapFooterLen = 6*8 + 4 + 8

// crcWriter tees writes into a running CRC32-C and byte count.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// snapshotInput is the freeze-point state a fold writes out: everything
// is a private copy or immutable, so compaction runs without the store
// lock while ingest continues.
type snapshotInput struct {
	coveredSeq uint64
	urlNames   []string
	// presentIDs is the per-URL presence list (CRL order) at the freeze
	// point; lastSeen and presentBits likewise.
	presentIDs  [][]uint32
	lastSeen    []int64
	presentBits []uint64
	frozen      *memtable
	old         *snapshotView // previous generation, nil for the first fold
	nextID      uint32
	count       int
}

func (in *snapshotInput) bit(id uint32) bool {
	w := int(id) / 64
	if w >= len(in.presentBits) {
		return false
	}
	return in.presentBits[w]&(1<<(uint(id)%64)) != 0
}

func (in *snapshotInput) seen(id uint32) int64 {
	if int(id) >= len(in.lastSeen) {
		return 0
	}
	return in.lastSeen[id]
}

// writeSnapshot streams the merged (old snapshot ∪ frozen memtable)
// entry set, sorted by (urlID, serial), into a new snapshot segment at
// dir/snapName(gen), fsyncs it, and returns its loaded view.
func writeSnapshot(dir string, gen uint64, in *snapshotInput) (*snapshotView, error) {
	// Sort the frozen entries once; the old snapshot is already sorted.
	frozenIdx := make([]int, in.frozen.len())
	for i := range frozenIdx {
		frozenIdx[i] = i
	}
	fz := in.frozen
	sort.Slice(frozenIdx, func(a, b int) bool {
		ia, ib := frozenIdx[a], frozenIdx[b]
		return compareKey(fz.urlID[ia], []byte(fz.serials[ia]), fz.urlID[ib], []byte(fz.serials[ib])) < 0
	})

	tmp := filepath.Join(dir, snapName(gen)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<20)}
	var scratch []byte
	emit := func(b []byte) error {
		_, err := cw.Write(b)
		return err
	}

	if err := emit([]byte(snapMagic)); err != nil {
		return nil, err
	}

	// Meta block.
	metaOff := cw.n
	scratch = scratch[:0]
	scratch = binary.AppendUvarint(scratch, formatVersion)
	scratch = binary.AppendUvarint(scratch, in.coveredSeq)
	scratch = binary.AppendUvarint(scratch, uint64(len(in.urlNames)))
	total := in.frozen.len()
	if in.old != nil {
		total += in.old.entryCount
	}
	scratch = binary.AppendUvarint(scratch, uint64(total))
	scratch = binary.AppendUvarint(scratch, uint64(in.nextID))
	scratch = binary.AppendUvarint(scratch, uint64(in.count))
	scratch = binary.AppendUvarint(scratch, sparseIndexEvery)
	if err := emit(scratch); err != nil {
		return nil, err
	}

	// URL block.
	urlOff := cw.n
	for _, name := range in.urlNames {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(name)))
		scratch = append(scratch, name...)
		if err := emit(scratch); err != nil {
			return nil, err
		}
	}

	// Entries block: two-way merge of the old snapshot's sorted block
	// and the sorted frozen memtable. An entry lives in exactly one
	// source (the memtable only ever accepts serials absent everywhere
	// else), so the merge never deduplicates.
	entriesOff := cw.n
	var sparse []int
	filter := newAbsenceFilter(total)
	written := 0
	writeEntry := func(urlID uint32, serial []byte, id uint32, revokedAt, reason, firstSeen int64) error {
		if written%sparseIndexEvery == 0 {
			sparse = append(sparse, int(cw.n))
		}
		written++
		filter.add(urlID, serial)
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(urlID))
		scratch = binary.AppendUvarint(scratch, uint64(len(serial)))
		scratch = append(scratch, serial...)
		scratch = binary.AppendUvarint(scratch, uint64(id))
		// The three timestamps are UnixNano values — 9-10 bytes as
		// varints and the dominant decode cost; fixed 8-byte fields are
		// both smaller and a single load each.
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(revokedAt))
		scratch = binary.AppendUvarint(scratch, uint64(reason))
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(firstSeen))
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(in.seen(id)))
		if in.bit(id) {
			scratch = append(scratch, 1)
		} else {
			scratch = append(scratch, 0)
		}
		return emit(scratch)
	}

	oldPos := 0
	oldEnd := 0
	var oldRec entryRec
	oldOK := false
	if in.old != nil {
		oldPos, oldEnd = in.old.entriesOff, in.old.entriesEnd
		oldPos, oldOK = in.old.decodeAt(oldPos, &oldRec)
		if !oldOK && oldPos < oldEnd {
			return nil, errors.New("segdb: old snapshot entries undecodable during fold")
		}
	}
	fi := 0
	for oldOK || fi < len(frozenIdx) {
		useOld := oldOK
		if oldOK && fi < len(frozenIdx) {
			j := frozenIdx[fi]
			if compareKey(fz.urlID[j], []byte(fz.serials[j]), oldRec.urlID, oldRec.serial) < 0 {
				useOld = false
			}
		}
		if useOld {
			if err := writeEntry(oldRec.urlID, oldRec.serial, oldRec.id, oldRec.revokedAt, oldRec.reason, oldRec.firstSeen); err != nil {
				return nil, err
			}
			if oldPos < oldEnd {
				oldPos, oldOK = in.old.decodeAt(oldPos, &oldRec)
				if !oldOK {
					return nil, errors.New("segdb: old snapshot entries undecodable during fold")
				}
			} else {
				oldOK = false
			}
		} else {
			j := frozenIdx[fi]
			if err := writeEntry(fz.urlID[j], []byte(fz.serials[j]), fz.baseID+uint32(j), fz.revokedAt[j], int64(fz.reason[j]), fz.firstSeen[j]); err != nil {
				return nil, err
			}
			fi++
		}
	}
	if written != total {
		return nil, fmt.Errorf("segdb: fold wrote %d entries, expected %d", written, total)
	}

	// Presence block: per URL, the entry IDs of the current CRL version
	// in CRL order (zigzag deltas).
	presentOff := cw.n
	for _, ids := range in.presentIDs {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(ids)))
		prev := int64(0)
		for _, id := range ids {
			scratch = binary.AppendVarint(scratch, int64(id)-prev)
			prev = int64(id)
		}
		if err := emit(scratch); err != nil {
			return nil, err
		}
	}

	// Sparse index block.
	sparseOff := cw.n
	scratch = scratch[:0]
	scratch = binary.AppendUvarint(scratch, uint64(len(sparse)))
	if err := emit(scratch); err != nil {
		return nil, err
	}
	for _, off := range sparse {
		scratch = scratch[:0]
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(off))
		if err := emit(scratch); err != nil {
			return nil, err
		}
	}
	end := cw.n

	// Footer. The CRC covers everything before the CRC field itself.
	scratch = scratch[:0]
	for _, off := range []int64{metaOff, urlOff, entriesOff, presentOff, sparseOff, end} {
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(off))
	}
	if err := emit(scratch); err != nil {
		return nil, err
	}
	crc := cw.crc
	tail := binary.LittleEndian.AppendUint32(nil, crc)
	tail = append(tail, snapEndMagic...)
	if _, err := cw.w.Write(tail); err != nil {
		return nil, err
	}

	if err := cw.w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		f = nil
		return nil, err
	}
	f = nil
	final := filepath.Join(dir, snapName(gen))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	v, err := openSnapshot(final, gen)
	if err != nil {
		return nil, err
	}
	v.filter = filter
	return v, nil
}

// openSnapshot validates and maps one snapshot segment. Any structural
// damage — bad magic, short file, CRC mismatch — returns an error; the
// caller quarantines and falls back.
func openSnapshot(path string, gen uint64) (*snapshotView, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(snapMagic)+snapFooterLen) {
		return nil, fmt.Errorf("segdb: snapshot %s too short (%d bytes)", filepath.Base(path), size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, err
	}
	v := &snapshotView{f: f, data: data, gen: gen}
	defer func() {
		if !ok {
			munmapFile(data)
		}
	}()
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("segdb: snapshot %s has bad magic", filepath.Base(path))
	}
	foot := len(data) - snapFooterLen
	if string(data[foot+6*8+4:]) != snapEndMagic {
		return nil, fmt.Errorf("segdb: snapshot %s has bad end magic", filepath.Base(path))
	}
	wantCRC := binary.LittleEndian.Uint32(data[foot+6*8:])
	if crc32.Checksum(data[:foot+6*8], castagnoli) != wantCRC {
		return nil, fmt.Errorf("segdb: snapshot %s fails CRC", filepath.Base(path))
	}
	var offs [6]int
	for i := range offs {
		o := binary.LittleEndian.Uint64(data[foot+8*i:])
		if o > uint64(foot) {
			return nil, fmt.Errorf("segdb: snapshot %s block offset out of range", filepath.Base(path))
		}
		offs[i] = int(o)
	}
	metaOff, urlOff, entriesOff, presentOff, sparseOff, end := offs[0], offs[1], offs[2], offs[3], offs[4], offs[5]

	corrupt := func() error {
		return fmt.Errorf("segdb: snapshot %s has undecodable blocks", filepath.Base(path))
	}
	pos := metaOff
	var vals [7]uint64
	for i := range vals {
		var okv bool
		vals[i], pos, okv = uvarint(data, pos)
		if !okv {
			return nil, corrupt()
		}
	}
	if vals[0] != formatVersion {
		return nil, fmt.Errorf("segdb: snapshot %s has version %d, want %d", filepath.Base(path), vals[0], formatVersion)
	}
	v.coveredSeq = vals[1]
	urlCount := int(vals[2])
	v.entryCount = int(vals[3])
	v.nextID = uint32(vals[4])
	v.count = int(vals[5])
	v.sparseEvery = int(vals[6])
	if v.sparseEvery <= 0 || urlCount < 0 || v.entryCount < 0 {
		return nil, corrupt()
	}

	pos = urlOff
	v.urlNames = make([]string, urlCount)
	for i := 0; i < urlCount; i++ {
		n, p, okv := uvarint(data, pos)
		if !okv || p+int(n) > entriesOff {
			return nil, corrupt()
		}
		v.urlNames[i] = string(data[p : p+int(n)])
		pos = p + int(n)
	}
	v.entriesOff = entriesOff
	v.entriesEnd = presentOff

	pos = sparseOff
	n, pos, okv := uvarint(data, pos)
	if !okv || n > uint64(v.entryCount)+1 {
		return nil, corrupt()
	}
	v.sparse = make([]int, n)
	for i := range v.sparse {
		if pos+8 > end {
			return nil, corrupt()
		}
		off := int(binary.LittleEndian.Uint64(data[pos:]))
		if off < entriesOff || off >= presentOff || (i > 0 && off <= v.sparse[i-1]) {
			return nil, corrupt()
		}
		v.sparse[i] = off
		pos += 8
	}
	ok = true
	return v, nil
}

// presentLists decodes the per-URL presence block (used only at open).
func (v *snapshotView) presentLists(presentOff int) ([][]uint32, error) {
	lists := make([][]uint32, len(v.urlNames))
	pos := presentOff
	for i := range lists {
		n, p, ok := uvarint(v.data, pos)
		if !ok {
			return nil, fmt.Errorf("segdb: snapshot presence block undecodable")
		}
		pos = p
		ids := make([]uint32, n)
		prev := int64(0)
		for j := range ids {
			d, p2, ok2 := svarint(v.data, pos)
			if !ok2 {
				return nil, fmt.Errorf("segdb: snapshot presence block undecodable")
			}
			prev += d
			if prev < 0 || prev >= int64(v.nextID) {
				return nil, fmt.Errorf("segdb: snapshot presence block references unknown entry")
			}
			ids[j] = uint32(prev)
			pos = p2
		}
		lists[i] = ids
	}
	return lists, nil
}

// presentBlockOff recovers the presence block offset from the footer.
func (v *snapshotView) presentBlockOff() int {
	foot := len(v.data) - snapFooterLen
	return int(binary.LittleEndian.Uint64(v.data[foot+3*8:]))
}

// decodeAt decodes the entry record at an absolute offset into rec (an
// out-parameter: the record is decoded millions of times per fold and
// returning the struct by value shows up as pure copy cost). It trusts
// the open-time CRC and only bounds-checks; ok=false means the offset
// did not point at a well-formed record, leaving rec undefined.
func (v *snapshotView) decodeAt(off int, rec *entryRec) (next int, ok bool) {
	b := v.data
	end := v.entriesEnd
	if off < v.entriesOff || off >= end {
		return off, false
	}
	u, pos, okv := uvarint(b[:end], off)
	if !okv {
		return off, false
	}
	rec.urlID = uint32(u)
	u, pos, okv = uvarint(b[:end], pos)
	if !okv || u > maxSerialBytes || pos+int(u) > end {
		return off, false
	}
	rec.serial = b[pos : pos+int(u)]
	pos += int(u)
	u, pos, okv = uvarint(b[:end], pos)
	if !okv {
		return off, false
	}
	rec.id = uint32(u)
	if pos+8 > end {
		return off, false
	}
	rec.revokedAt = int64(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	u, pos, okv = uvarint(b[:end], pos)
	if !okv {
		return off, false
	}
	rec.reason = int64(u)
	if pos+17 > end {
		return off, false
	}
	rec.firstSeen = int64(binary.LittleEndian.Uint64(b[pos:]))
	rec.lastSeen = int64(binary.LittleEndian.Uint64(b[pos+8:]))
	rec.present = b[pos+16] != 0
	return pos + 17, true
}

// find binary-searches the sparse index for (urlID, serial) and scans at
// most one sparse stride of the mmap'd entries block. The Bloom filter
// in front answers the common ingest case — a brand-new serial — without
// touching the mapping at all. The warm path performs no allocations.
func (v *snapshotView) find(urlID uint32, serial []byte) (rec entryRec, ok bool) {
	if v.filter != nil && !v.filter.mayContain(urlID, serial) {
		return rec, false
	}
	if len(v.sparse) == 0 {
		return rec, false
	}
	// Invariant: key(sparse[lo]) <= target (after the first-key guard),
	// key(sparse[hi]) > target for hi == len; classic offset bisection.
	lo, hi := 0, len(v.sparse)
	if _, okv := v.decodeAt(v.sparse[0], &rec); !okv {
		return rec, false
	}
	if compareKey(rec.urlID, rec.serial, urlID, serial) > 0 {
		return rec, false
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if _, okm := v.decodeAt(v.sparse[mid], &rec); !okm {
			return rec, false
		}
		if compareKey(rec.urlID, rec.serial, urlID, serial) <= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	pos := v.sparse[lo]
	for pos < v.entriesEnd {
		next, okr := v.decodeAt(pos, &rec)
		if !okr {
			return rec, false
		}
		c := compareKey(rec.urlID, rec.serial, urlID, serial)
		if c == 0 {
			return rec, true
		}
		if c > 0 {
			return rec, false
		}
		pos = next
	}
	return rec, false
}

// visit decodes every entry in block order.
func (v *snapshotView) visit(fn func(rec entryRec) bool) error {
	pos := v.entriesOff
	var rec entryRec
	for pos < v.entriesEnd {
		next, ok := v.decodeAt(pos, &rec)
		if !ok {
			return errors.New("segdb: snapshot entries block undecodable")
		}
		if !fn(rec) {
			return nil
		}
		pos = next
	}
	return nil
}

func (v *snapshotView) close() error {
	err := munmapFile(v.data)
	if cerr := v.f.Close(); err == nil {
		err = cerr
	}
	return err
}
