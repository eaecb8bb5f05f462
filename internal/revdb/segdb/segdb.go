package segdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/crawler"
	"repro/internal/crl"
	"repro/internal/revdb"
)

// SyncPolicy selects when the write-ahead log is fsynced.
type SyncPolicy int

const (
	// SyncBatch is the group-commit default: all records of one
	// IngestSnapshot become durable with a single fsync.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every record — maximal durability,
	// measurably slower ingest.
	SyncAlways
	// SyncNone never fsyncs explicitly; durability is left to the OS.
	// A crash can lose the most recent appends, but recovery still
	// salvages a consistent prefix.
	SyncNone
)

// Options tune the disk store. The zero value is ready to use.
type Options struct {
	// Sync is the WAL fsync policy (default SyncBatch: one fsync per
	// ingested snapshot).
	Sync SyncPolicy
	// MemtableFlushEntries triggers a fold into a new snapshot segment
	// once this many entries sit in the memtable (default 524288 —
	// roughly 50 MB of memtable, chosen so fold write-amplification
	// stays small against million-entry worlds; negative disables
	// automatic folds — Compact still works).
	MemtableFlushEntries int
	// WALRotateBytes seals the active WAL segment once it exceeds this
	// size (default 64 MiB).
	WALRotateBytes int64
	// SparseIndexEvery is the snapshot sparse-index stride: one indexed
	// offset per this many sorted entries (default 32, a quarter byte
	// of index per entry). Smaller is faster lookup, larger is less
	// memory.
	SparseIndexEvery int
	// SynchronousCompact runs automatic folds inline in the triggering
	// IngestSnapshot instead of on a background goroutine. Readers are
	// never blocked either way; this only makes timing deterministic
	// for tests and benchmarks.
	SynchronousCompact bool
}

func (o *Options) fillDefaults() {
	if o.MemtableFlushEntries == 0 {
		o.MemtableFlushEntries = 524288
	}
	if o.WALRotateBytes == 0 {
		o.WALRotateBytes = 64 << 20
	}
	if o.SparseIndexEvery <= 0 {
		o.SparseIndexEvery = 32
	}
}

// Stats counts the store's disk activity and recovery events.
type Stats struct {
	Entries         int
	URLs            int
	MemtableEntries int
	SnapshotEntries int
	SnapshotGen     uint64
	Folds           int64
	FoldErrors      int64
	WALRecords      int64
	WALBytes        int64
	WALSyncs        int64
	// Recovery accounting from the last Open.
	ReplayedRecords  int64
	SalvagedFiles    int64
	QuarantinedBytes int64
	ZeroLengthSegs   int64
	SnapshotsDropped int64
}

// memtable holds entries not yet folded into a snapshot segment, as
// parallel arrays indexed by (entryID - baseID). Serials double as the
// per-URL map keys, so each is stored once.
type memtable struct {
	baseID    uint32
	serials   []string
	urlID     []uint32
	revokedAt []int64
	reason    []uint8
	firstSeen []int64
}

func (mt *memtable) len() int { return len(mt.serials) }

// urlState is the per-CRL-URL mutable state.
type urlState struct {
	id      uint32
	name    string
	lastCRL *crl.CRL
	// present holds the entry IDs of the URL's current CRL version, in
	// CRL order (so a grown CRL's unchanged prefix maps to IDs without
	// any lookups).
	present []uint32
	// pending is a LastSeen day (unix nanos) from the unchanged-CRL
	// fast path, not yet written through; read paths fold it in on the
	// fly.
	pending int64
	// mem indexes this URL's memtable entries; frozenMem the entries of
	// a fold in flight.
	mem       map[string]uint32
	frozenMem map[string]uint32
}

// Store is the disk-backed revdb.Store. See the package comment for the
// on-disk layout. It is safe for concurrent use; Close must not race
// other methods.
type Store struct {
	dir  string
	opts Options

	mu        sync.RWMutex
	urls      []*urlState
	urlByName map[string]*urlState
	mt        *memtable
	frozen    *memtable
	// lastSeen and present are the authoritative per-entry mutable
	// state, indexed by entry ID. Everything else about an entry is
	// immutable and lives in the memtable or the snapshot segment.
	lastSeen []int64
	present  []uint64
	count    int
	nextID   uint32
	snap     *snapshotView

	wal     *walWriter
	walSeq  uint64
	walErr  error
	scratch []byte

	// pendingFold caches a freeze-point capture across fold retries.
	pendingFold *snapshotInput

	foldMu  sync.Mutex
	foldWG  sync.WaitGroup
	closed  bool
	statsMu sync.Mutex
	stats   Stats
}

var _ revdb.Store = (*Store)(nil)

// Open loads (or creates) a disk store rooted at dir: newest valid
// snapshot first, then a replay of every WAL segment it does not cover.
// Damaged files are salvaged and quarantined, never silently ingested.
func Open(dir string, opts *Options) (*Store, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		opts:      o,
		urlByName: make(map[string]*urlState),
		mt:        &memtable{},
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapGens []uint64
	var walSeqs []uint64
	for _, de := range names {
		name := de.Name()
		var n uint64
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "snap-%d.seg", &n); err == nil {
				snapGens = append(snapGens, n)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if _, err := fmt.Sscanf(name, "wal-%d.log", &n); err == nil {
				walSeqs = append(walSeqs, n)
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	// Newest structurally valid snapshot wins; invalid ones are
	// quarantined so the fallback is visible, not silent.
	for _, gen := range snapGens {
		path := filepath.Join(dir, snapName(gen))
		if s.snap == nil {
			view, verr := openSnapshot(path, gen)
			if verr == nil {
				s.snap = view
				continue
			}
			s.stats.SnapshotsDropped++
			if qerr := os.Rename(path, path+".quarantine"); qerr != nil {
				return nil, qerr
			}
			continue
		}
		// Older generation superseded by the one we loaded.
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	if s.snap != nil {
		if err := s.loadSnapshotState(); err != nil {
			return nil, err
		}
	}

	// Replay WAL segments the snapshot does not cover; delete the ones
	// it does (leftovers of a crash between fold and cleanup).
	maxSeq := uint64(0)
	for _, seq := range walSeqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		path := filepath.Join(dir, walName(seq))
		if s.snap != nil && seq <= s.snap.coveredSeq {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		res, rerr := readWALFile(path, s.applyRecord)
		if rerr != nil {
			return nil, rerr
		}
		s.stats.ReplayedRecords += int64(res.records)
		if res.salvaged {
			s.stats.SalvagedFiles++
			s.stats.QuarantinedBytes += res.quarantinedBytes
		}
		if res.zeroLength {
			s.stats.ZeroLengthSegs++
		}
	}

	// Fresh active segment; recovered segments are never appended to.
	s.walSeq = maxSeq + 1
	w, err := newWALWriter(filepath.Join(dir, walName(s.walSeq)))
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// loadSnapshotState seeds the in-memory side of the store from the
// loaded snapshot: URL table, presence lists, and one sequential scan of
// the entries block for the per-entry lastSeen/present state. The scan
// is the dominant cost of a cold start.
func (s *Store) loadSnapshotState() error {
	v := s.snap
	lists, err := v.presentLists(v.presentBlockOff())
	if err != nil {
		return err
	}
	for i, name := range v.urlNames {
		st := &urlState{id: uint32(i), name: name, present: lists[i], mem: make(map[string]uint32)}
		s.urls = append(s.urls, st)
		s.urlByName[name] = st
	}
	s.nextID = v.nextID
	s.count = v.count
	s.mt.baseID = v.nextID
	s.lastSeen = make([]int64, v.nextID)
	s.present = make([]uint64, (int(v.nextID)+63)/64)
	// The absence filter rides along on the scan: the fold that wrote
	// this snapshot built one in memory, but it does not survive the
	// process, so a reopen reconstructs it from the same pass.
	filter := newAbsenceFilter(v.entryCount)
	n := 0
	err = v.visit(func(rec entryRec) bool {
		n++
		if int(rec.id) >= len(s.lastSeen) {
			return false
		}
		s.lastSeen[rec.id] = rec.lastSeen
		if rec.present {
			s.present[rec.id/64] |= 1 << (rec.id % 64)
		}
		filter.add(rec.urlID, rec.serial)
		return true
	})
	if err != nil {
		return err
	}
	if n != v.entryCount {
		return fmt.Errorf("segdb: snapshot advertises %d entries, scanned %d", v.entryCount, n)
	}
	v.filter = filter
	return nil
}

// --- ingest -----------------------------------------------------------

// IngestSnapshot implements revdb.Store. All records of the snapshot are
// appended to the WAL and made durable with one group-commit fsync
// (under the default SyncBatch policy) before it returns.
func (s *Store) IngestSnapshot(snap *crawler.Snapshot) int {
	s.mu.Lock()
	urls := make([]string, 0, len(snap.CRLs))
	for url := range snap.CRLs {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	day := snap.Day.UnixNano()
	added := 0
	for _, url := range urls {
		c := snap.CRLs[url]
		st := s.urlByName[url]
		if st == nil {
			st = s.addURL(url)
		}
		if st.lastCRL == c {
			st.pending = day
			s.walTouch(st.id, day)
			continue
		}
		added += s.ingestChanged(st, c, day)
	}
	if s.opts.Sync == SyncBatch && s.walErr == nil {
		if err := s.wal.sync(); err != nil {
			s.walErr = err
		} else {
			s.stats.WALSyncs++
		}
	}
	s.maybeRotateWALLocked()
	needFold := s.opts.MemtableFlushEntries > 0 && s.mt.len() >= s.opts.MemtableFlushEntries &&
		s.frozen == nil && !s.closed
	s.mu.Unlock()
	if needFold {
		if s.opts.SynchronousCompact {
			s.Compact()
		} else {
			s.foldWG.Add(1)
			go func() {
				defer s.foldWG.Done()
				s.Compact()
			}()
		}
	}
	return added
}

// ingestChanged merges one new CRL version for the URL.
func (s *Store) ingestChanged(st *urlState, c *crl.CRL, day int64) int {
	added := 0
	newPresent := make([]uint32, 0, len(c.Entries))
	old := st.present
	oldCRL := st.lastCRL

	// Unchanged-prefix fast path: CAs append new revocations, so most of
	// a re-signed CRL maps positionally onto the previous version.
	i := 0
	if oldCRL != nil && len(old) == len(oldCRL.Entries) {
		max := len(old)
		if len(c.Entries) < max {
			max = len(c.Entries)
		}
		for i < max && bytes.Equal(oldCRL.Entries[i].Serial, c.Entries[i].Serial) {
			newPresent = append(newPresent, old[i])
			i++
		}
	}
	// Entries past the divergence point (a mid-list expiry drop) are
	// indexed once, transiently, instead of paying a disk lookup each.
	var tail map[string]uint32
	if i < len(old) && oldCRL != nil && len(old) == len(oldCRL.Entries) {
		tail = make(map[string]uint32, len(old)-i)
		for j := i; j < len(old); j++ {
			tail[string(oldCRL.Entries[j].Serial)] = old[j]
		}
	}
	for ; i < len(c.Entries); i++ {
		e := &c.Entries[i]
		id, ok := tail[string(e.Serial)]
		if !ok {
			id, ok = s.findID(st, e.Serial)
		}
		if !ok {
			id = s.addEntry(st, e, day)
			added++
		}
		newPresent = append(newPresent, id)
	}
	s.applyPresent(st, day, newPresent)
	st.lastCRL = c
	s.walPresent(st.id, day, newPresent)
	return added
}

// applyPresent switches the URL to a new presence list: pending LastSeen
// days flush to the outgoing version first (entries dropped by the new
// version keep the last day they were observed), then every entry of the
// new version is stamped with the new day. Ingest and WAL replay share
// this transition, which is what makes recovery replay exact.
func (s *Store) applyPresent(st *urlState, day int64, ids []uint32) {
	if st.pending != 0 {
		for _, id := range st.present {
			s.lastSeen[id] = st.pending
		}
		st.pending = 0
	}
	for _, id := range st.present {
		s.present[id/64] &^= 1 << (id % 64)
	}
	for _, id := range ids {
		s.present[id/64] |= 1 << (id % 64)
		s.lastSeen[id] = day
	}
	st.present = ids
}

// findID resolves a serial to its entry ID across the memtable, a fold
// in flight, and the snapshot segment.
func (s *Store) findID(st *urlState, serial []byte) (uint32, bool) {
	if id, ok := st.mem[string(serial)]; ok {
		return id, true
	}
	if st.frozenMem != nil {
		if id, ok := st.frozenMem[string(serial)]; ok {
			return id, true
		}
	}
	if s.snap != nil {
		if rec, ok := s.snap.find(st.id, serial); ok {
			return rec.id, true
		}
	}
	return 0, false
}

// reasonOf widens a stored reason back to a crl.Reason. The memtable
// column and the segment record hold the code's low byte and the WAL its
// two's complement, so crl.ReasonAbsent (-1) is 255 in all three and is
// sign-extended on every read; no real code reaches 128.
func reasonOf(b uint8) crl.Reason { return crl.Reason(int8(b)) }

// addEntry registers a previously unseen revocation.
func (s *Store) addEntry(st *urlState, e *crl.Entry, day int64) uint32 {
	id := s.nextID
	s.nextID++
	key := string(e.Serial)
	st.mem[key] = id
	mt := s.mt
	mt.serials = append(mt.serials, key)
	mt.urlID = append(mt.urlID, st.id)
	mt.revokedAt = append(mt.revokedAt, e.RevokedAt.UnixNano())
	mt.reason = append(mt.reason, uint8(e.Reason))
	mt.firstSeen = append(mt.firstSeen, day)
	s.growTo(id)
	s.lastSeen[id] = day
	s.count++

	b := s.scratch[:0]
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(st.id))
	b = binary.AppendUvarint(b, uint64(len(e.Serial)))
	b = append(b, e.Serial...)
	b = binary.AppendVarint(b, e.RevokedAt.UnixNano())
	b = binary.AppendUvarint(b, uint64(e.Reason))
	b = binary.AppendVarint(b, day)
	s.scratch = b[:0]
	s.walAppend(recAddEntry, b)
	return id
}

func (s *Store) addURL(url string) *urlState {
	st := &urlState{id: uint32(len(s.urls)), name: url, mem: make(map[string]uint32)}
	s.urls = append(s.urls, st)
	s.urlByName[url] = st
	b := s.scratch[:0]
	b = binary.AppendUvarint(b, uint64(st.id))
	b = append(b, url...)
	s.scratch = b[:0]
	s.walAppend(recAddURL, b)
	return st
}

func (s *Store) growTo(id uint32) {
	for int(id) >= len(s.lastSeen) {
		s.lastSeen = append(s.lastSeen, 0)
	}
	for int(id)/64 >= len(s.present) {
		s.present = append(s.present, 0)
	}
}

func (s *Store) walTouch(urlID uint32, day int64) {
	b := s.scratch[:0]
	b = binary.AppendUvarint(b, uint64(urlID))
	b = binary.AppendVarint(b, day)
	s.scratch = b[:0]
	s.walAppend(recTouch, b)
}

func (s *Store) walPresent(urlID uint32, day int64, ids []uint32) {
	b := s.scratch[:0]
	b = binary.AppendUvarint(b, uint64(urlID))
	b = binary.AppendVarint(b, day)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id)-prev)
		prev = int64(id)
	}
	s.scratch = b[:0]
	s.walAppend(recPresent, b)
}

func (s *Store) walAppend(typ byte, payload []byte) {
	if s.walErr != nil {
		return
	}
	if err := s.wal.append(typ, payload); err != nil {
		s.walErr = err
		return
	}
	s.stats.WALRecords++
	s.stats.WALBytes = s.wal.fileBytes
	if s.opts.Sync == SyncAlways {
		if err := s.wal.sync(); err != nil {
			s.walErr = err
			return
		}
		s.stats.WALSyncs++
	}
}

// maybeRotateWALLocked seals an oversized active segment and opens the
// next. Sealed segments sit until a fold folds them into a snapshot.
func (s *Store) maybeRotateWALLocked() {
	if s.walErr != nil || s.wal.fileBytes < s.opts.WALRotateBytes {
		return
	}
	if err := s.wal.seal(); err != nil {
		s.walErr = err
		return
	}
	s.walSeq++
	w, err := newWALWriter(filepath.Join(s.dir, walName(s.walSeq)))
	if err != nil {
		s.walErr = err
		return
	}
	s.wal = w
}

// --- replay -----------------------------------------------------------

// applyRecord replays one WAL record through the same state transitions
// ingest uses. An error rejects the record, which quarantines the
// segment from that point.
func (s *Store) applyRecord(rec walRecord) error {
	b := rec.payload
	switch rec.typ {
	case recAddURL:
		id, pos, ok := uvarint(b, 0)
		if !ok || id != uint64(len(s.urls)) {
			return errors.New("segdb: addURL record out of sequence")
		}
		name := string(b[pos:])
		if _, dup := s.urlByName[name]; dup {
			return errors.New("segdb: addURL record duplicates URL")
		}
		st := &urlState{id: uint32(id), name: name, mem: make(map[string]uint32)}
		s.urls = append(s.urls, st)
		s.urlByName[name] = st
	case recAddEntry:
		id, pos, ok := uvarint(b, 0)
		if !ok || id != uint64(s.nextID) {
			return errors.New("segdb: addEntry record out of sequence")
		}
		urlID, pos, ok := uvarint(b, pos)
		if !ok || urlID >= uint64(len(s.urls)) {
			return errors.New("segdb: addEntry references unknown URL")
		}
		slen, pos, ok := uvarint(b, pos)
		if !ok || slen > maxSerialBytes || pos+int(slen) > len(b) {
			return errors.New("segdb: addEntry serial undecodable")
		}
		serial := b[pos : pos+int(slen)]
		pos += int(slen)
		revokedAt, pos, ok := svarint(b, pos)
		if !ok {
			return errors.New("segdb: addEntry time undecodable")
		}
		reason, pos, ok := uvarint(b, pos)
		if !ok {
			return errors.New("segdb: addEntry reason undecodable")
		}
		firstSeen, _, ok := svarint(b, pos)
		if !ok {
			return errors.New("segdb: addEntry first-seen undecodable")
		}
		st := s.urls[urlID]
		e := crl.Entry{Serial: serial, RevokedAt: time.Unix(0, revokedAt).UTC(), Reason: reasonOf(uint8(reason))}
		s.addEntryReplay(st, &e, firstSeen)
	case recPresent:
		urlID, pos, ok := uvarint(b, 0)
		if !ok || urlID >= uint64(len(s.urls)) {
			return errors.New("segdb: present record references unknown URL")
		}
		day, pos, ok := svarint(b, pos)
		if !ok {
			return errors.New("segdb: present day undecodable")
		}
		n, pos, ok := uvarint(b, pos)
		if !ok || n > uint64(s.nextID) {
			return errors.New("segdb: present count undecodable")
		}
		ids := make([]uint32, 0, n)
		prev := int64(0)
		for j := uint64(0); j < n; j++ {
			d, p, ok2 := svarint(b, pos)
			if !ok2 {
				return errors.New("segdb: present ids undecodable")
			}
			prev += d
			pos = p
			if prev < 0 || prev >= int64(s.nextID) {
				return errors.New("segdb: present record references unknown entry")
			}
			ids = append(ids, uint32(prev))
		}
		s.applyPresent(s.urls[urlID], day, ids)
	case recTouch:
		urlID, pos, ok := uvarint(b, 0)
		if !ok || urlID >= uint64(len(s.urls)) {
			return errors.New("segdb: touch record references unknown URL")
		}
		day, _, ok := svarint(b, pos)
		if !ok {
			return errors.New("segdb: touch day undecodable")
		}
		s.urls[urlID].pending = day
	default:
		return fmt.Errorf("segdb: unknown record type %d", rec.typ)
	}
	return nil
}

// addEntryReplay is addEntry minus the WAL write: the record being
// replayed is the WAL write. The serial is copied (it aliases the read
// buffer).
func (s *Store) addEntryReplay(st *urlState, e *crl.Entry, firstSeen int64) {
	id := s.nextID
	s.nextID++
	key := string(e.Serial)
	st.mem[key] = id
	mt := s.mt
	mt.serials = append(mt.serials, key)
	mt.urlID = append(mt.urlID, st.id)
	mt.revokedAt = append(mt.revokedAt, e.RevokedAt.UnixNano())
	mt.reason = append(mt.reason, uint8(e.Reason))
	mt.firstSeen = append(mt.firstSeen, firstSeen)
	s.growTo(id)
	s.lastSeen[id] = firstSeen
	s.count++
}

// --- reads ------------------------------------------------------------

// effectiveLastSeen folds a pending touch day into an entry's stored
// LastSeen without writing anything — reads hold only the read lock.
func (s *Store) effectiveLastSeen(st *urlState, id uint32) int64 {
	ls := s.lastSeen[id]
	if st.pending != 0 && s.present[id/64]&(1<<(id%64)) != 0 && st.pending > ls {
		ls = st.pending
	}
	return ls
}

// LookupMeta implements revdb.Store. The warm path — URL map hit, sparse
// index bisection, record decode from the mapping — performs zero heap
// allocations.
func (s *Store) LookupMeta(crlURL string, serial []byte) (revdb.Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.urlByName[crlURL]
	if st == nil {
		return revdb.Meta{}, false
	}
	if id, ok := st.mem[string(serial)]; ok {
		i := id - s.mt.baseID
		return revdb.Meta{
			RevokedAt: time.Unix(0, s.mt.revokedAt[i]).UTC(),
			Reason:    reasonOf(s.mt.reason[i]),
			FirstSeen: time.Unix(0, s.mt.firstSeen[i]).UTC(),
			LastSeen:  time.Unix(0, s.effectiveLastSeen(st, id)).UTC(),
		}, true
	}
	if st.frozenMem != nil {
		if id, ok := st.frozenMem[string(serial)]; ok {
			i := id - s.frozen.baseID
			return revdb.Meta{
				RevokedAt: time.Unix(0, s.frozen.revokedAt[i]).UTC(),
				Reason:    reasonOf(s.frozen.reason[i]),
				FirstSeen: time.Unix(0, s.frozen.firstSeen[i]).UTC(),
				LastSeen:  time.Unix(0, s.effectiveLastSeen(st, id)).UTC(),
			}, true
		}
	}
	if s.snap != nil {
		if rec, ok := s.snap.find(st.id, serial); ok {
			return revdb.Meta{
				RevokedAt: time.Unix(0, rec.revokedAt).UTC(),
				Reason:    reasonOf(uint8(rec.reason)),
				FirstSeen: time.Unix(0, rec.firstSeen).UTC(),
				LastSeen:  time.Unix(0, s.effectiveLastSeen(st, rec.id)).UTC(),
			}, true
		}
	}
	return revdb.Meta{}, false
}

// RevokedAsOf implements revdb.Store.
func (s *Store) RevokedAsOf(crlURL string, serial *big.Int, t time.Time) bool {
	m, ok := s.LookupMeta(crlURL, serial.Bytes())
	return ok && !m.RevokedAt.After(t)
}

// ObservedBy implements revdb.Store.
func (s *Store) ObservedBy(crlURL string, serial *big.Int, t time.Time) bool {
	m, ok := s.LookupMeta(crlURL, serial.Bytes())
	return ok && !m.FirstSeen.After(t)
}

// Size implements revdb.Store.
func (s *Store) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// VisitEntries implements revdb.Store: fn sees a reused *Entry decoded
// from the store (visit order unspecified); copy anything retained. The
// store's read lock is held for the duration — fn must not call back
// into the store.
func (s *Store) VisitEntries(fn func(e *revdb.Entry) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.visitLocked(func(e *revdb.Entry, id uint32) bool { return fn(e) })
}

// visitLocked streams every entry (snapshot, fold in flight, memtable)
// through one reused Entry.
func (s *Store) visitLocked(fn func(e *revdb.Entry, id uint32) bool) {
	e := &revdb.Entry{Serial: new(big.Int)}
	fill := func(urlID uint32, serial []byte, id uint32, revokedAt, reason, firstSeen int64) {
		st := s.urls[urlID]
		e.CRLURL = st.name
		e.Serial.SetBytes(serial)
		e.RevokedAt = time.Unix(0, revokedAt).UTC()
		e.Reason = reasonOf(uint8(reason))
		e.FirstSeen = time.Unix(0, firstSeen).UTC()
		e.LastSeen = time.Unix(0, s.effectiveLastSeen(st, id)).UTC()
	}
	stop := false
	if s.snap != nil {
		s.snap.visit(func(rec entryRec) bool {
			fill(rec.urlID, rec.serial, rec.id, rec.revokedAt, rec.reason, rec.firstSeen)
			if !fn(e, rec.id) {
				stop = true
			}
			return !stop
		})
		if stop {
			return
		}
	}
	for _, mt := range []*memtable{s.frozen, s.mt} {
		if mt == nil {
			continue
		}
		for i := range mt.serials {
			id := mt.baseID + uint32(i)
			fill(mt.urlID[i], []byte(mt.serials[i]), id, mt.revokedAt[i], int64(mt.reason[i]), mt.firstSeen[i])
			if !fn(e, id) {
				return
			}
		}
	}
}

// Entries implements revdb.Store. Unlike the in-memory DB's live
// entries, these are detached copies in first-seen order; materializing
// them costs O(corpus) memory, so scale-bound callers should prefer
// VisitEntries or LookupMeta.
func (s *Store) Entries() []*revdb.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type withID struct {
		e  *revdb.Entry
		id uint32
	}
	all := make([]withID, 0, s.count)
	s.visitLocked(func(e *revdb.Entry, id uint32) bool {
		cp := *e
		cp.Serial = new(big.Int).Set(e.Serial)
		all = append(all, withID{&cp, id})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]*revdb.Entry, len(all))
	for i, w := range all {
		out[i] = w.e
	}
	return out
}

// EntriesByURL implements revdb.Store; detached copies, each URL's group
// in first-seen order.
func (s *Store) EntriesByURL() map[string][]*revdb.Entry {
	out := make(map[string][]*revdb.Entry)
	for _, e := range s.Entries() {
		out[e.CRLURL] = append(out[e.CRLURL], e)
	}
	return out
}

// DailyAdditions implements revdb.Store.
func (s *Store) DailyAdditions() map[time.Time]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[time.Time]int)
	s.visitLocked(func(e *revdb.Entry, id uint32) bool {
		out[e.FirstSeen.Truncate(24*time.Hour)]++
		return true
	})
	return out
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	st.Entries = s.count
	st.URLs = len(s.urls)
	st.MemtableEntries = s.mt.len()
	if s.frozen != nil {
		st.MemtableEntries += s.frozen.len()
	}
	if s.snap != nil {
		st.SnapshotEntries = s.snap.entryCount
		st.SnapshotGen = s.snap.gen
	}
	s.mu.RUnlock()
	return st
}

// Err surfaces a sticky WAL or fold failure. The in-memory state stays
// correct past such a failure; durability of subsequent ingests is what
// is lost.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.walErr != nil && !errors.Is(s.walErr, errInjectedCrash) {
		return s.walErr
	}
	return nil
}

// --- compaction -------------------------------------------------------

// Compact folds the memtable and the previous snapshot into a new
// sorted snapshot segment and deletes the WAL segments it covers.
// Readers and ingest proceed concurrently; only the freeze and the swap
// take the write lock, for O(entries) array copies and a pointer swap
// respectively. A failed fold leaves the store fully usable and is
// retried by the next Compact.
func (s *Store) Compact() error {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("segdb: store closed")
	}
	in := s.pendingFold
	if in == nil {
		if s.mt.len() == 0 && s.snap == nil {
			s.mu.Unlock()
			return nil
		}
		in = s.freezeLocked()
		s.pendingFold = in
	}
	oldSnap := s.snap
	gen := uint64(1)
	if oldSnap != nil {
		gen = oldSnap.gen + 1
	}
	s.mu.Unlock()

	view, err := writeSnapshot(s.dir, gen, in)
	if err != nil {
		s.statsMu.Lock()
		s.stats.FoldErrors++
		s.statsMu.Unlock()
		return err
	}

	s.mu.Lock()
	s.snap = view
	s.frozen = nil
	for _, st := range s.urls {
		st.frozenMem = nil
	}
	s.pendingFold = nil
	s.stats.Folds++
	s.mu.Unlock()

	// Superseded files: the previous snapshot and every WAL segment the
	// new one covers.
	if oldSnap != nil {
		oldSnap.close()
		os.Remove(filepath.Join(s.dir, snapName(oldSnap.gen)))
	}
	for seq := uint64(1); seq <= in.coveredSeq; seq++ {
		os.Remove(filepath.Join(s.dir, walName(seq)))
	}
	return syncDir(s.dir)
}

// freezeLocked captures the fold input at a consistent point: the active
// memtable becomes the frozen one, the active WAL segment is sealed (the
// snapshot covers exactly the records written so far), and the mutable
// per-entry state is copied so the fold can run without the lock.
func (s *Store) freezeLocked() *snapshotInput {
	// Pending touch days flush now so the copied lastSeen is complete;
	// replaying the covered WAL would reach the same values.
	for _, st := range s.urls {
		if st.pending != 0 {
			for _, id := range st.present {
				s.lastSeen[id] = st.pending
			}
			st.pending = 0
		}
	}
	in := &snapshotInput{
		coveredSeq:  s.walSeq,
		urlNames:    make([]string, len(s.urls)),
		presentIDs:  make([][]uint32, len(s.urls)),
		lastSeen:    append([]int64(nil), s.lastSeen...),
		presentBits: append([]uint64(nil), s.present...),
		frozen:      s.mt,
		old:         s.snap,
		nextID:      s.nextID,
		count:       s.count,
		sparseEvery: s.opts.SparseIndexEvery,
	}
	for i, st := range s.urls {
		in.urlNames[i] = st.name
		in.presentIDs[i] = append([]uint32(nil), st.present...)
		st.frozenMem = st.mem
		st.mem = make(map[string]uint32)
	}
	s.frozen = s.mt
	s.mt = &memtable{baseID: s.nextID}

	// Seal the WAL at the freeze point; subsequent ingests go to the
	// next segment, which the snapshot will not cover.
	if s.walErr == nil {
		if err := s.wal.seal(); err != nil {
			s.walErr = err
		}
	}
	s.walSeq++
	if w, err := newWALWriter(filepath.Join(s.dir, walName(s.walSeq))); err != nil {
		s.walErr = err
	} else {
		s.wal = w
	}
	return in
}

// Close waits for any background fold, syncs the WAL, and releases the
// mapping and file handles. It must not race other methods.
func (s *Store) Close() error {
	s.foldWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.walErr == nil {
		if err := s.wal.seal(); err != nil && first == nil {
			first = err
		}
	} else {
		s.wal.f.Close()
		if !errors.Is(s.walErr, errInjectedCrash) && first == nil {
			first = s.walErr
		}
	}
	if s.snap != nil {
		if err := s.snap.close(); err != nil && first == nil {
			first = err
		}
		s.snap = nil
	}
	return first
}
