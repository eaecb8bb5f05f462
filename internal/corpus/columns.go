package corpus

import (
	"repro/internal/ca"
)

// Certificate flag bits packed into the flags column.
const (
	flagEV uint8 = 1 << iota
	flagCRLDP
	flagOCSP
)

// symtab interns strings (CA names, CRL and OCSP URLs) into dense
// uint32 symbols. The workload reuses a handful of shared URL strings
// across millions of certificates, so the table stays tiny while the
// per-certificate column shrinks to a fixed-width integer.
type symtab struct {
	idx  map[string]uint32
	strs []string
}

func (s *symtab) intern(v string) uint32 {
	if id, ok := s.idx[v]; ok {
		return id
	}
	if s.idx == nil {
		s.idx = make(map[string]uint32)
	}
	id := uint32(len(s.strs))
	s.idx[v] = id
	s.strs = append(s.strs, v)
	return id
}

func (s *symtab) find(v string) (uint32, bool) {
	id, ok := s.idx[v]
	return id, ok
}

func (s *symtab) get(id uint32) string { return s.strs[id] }

// columns is the struct-of-arrays certificate store: one fixed-width
// slot per certificate, indexed by the dense uint32 ID assigned at
// first sighting. Validity bounds are fixed64 UnixNano timestamps,
// birth/death are scan indices into Corpus.scans, the issuer name is a
// symtab symbol, and serial magnitudes live back to back in a
// shared byte arena addressed by the serialOff fence posts.
type columns struct {
	notBefore []int64
	notAfter  []int64
	flags     []uint8
	caSym     []uint16
	birth     []uint32
	death     []uint32
	lastHosts []uint32
	lastStap  []uint32

	serialOff   []uint32 // len n+1: serial i is serialArena[off[i]:off[i+1]]
	serialArena []byte
}

func newColumns() *columns { return &columns{serialOff: []uint32{0}} }

func (c *columns) n() int { return len(c.flags) }

func (c *columns) serial(id uint32) []byte {
	return c.serialArena[c.serialOff[id]:c.serialOff[id+1]:c.serialOff[id+1]]
}

// add appends one certificate's record columns and returns its ID.
func (c *columns) add(rec *ca.Record, caSym uint16, scanIdx uint32) uint32 {
	id := uint32(c.n())
	c.notBefore = append(c.notBefore, rec.NotBefore.UnixNano())
	c.notAfter = append(c.notAfter, rec.NotAfter.UnixNano())
	var fl uint8
	if rec.EV {
		fl |= flagEV
	}
	if rec.HasCRLDP {
		fl |= flagCRLDP
	}
	if rec.HasOCSP {
		fl |= flagOCSP
	}
	c.flags = append(c.flags, fl)
	c.caSym = append(c.caSym, caSym)
	c.birth = append(c.birth, scanIdx)
	c.death = append(c.death, scanIdx)
	c.lastHosts = append(c.lastHosts, 0)
	c.lastStap = append(c.lastStap, 0)
	c.serialArena = append(c.serialArena, rec.SerialMagnitude()...)
	c.serialOff = append(c.serialOff, uint32(len(c.serialArena)))
	return id
}

// certIndex maps (CA symbol, serial magnitude) to certificate ID with an
// open-addressing table probed against the column arena, so no per-entry
// key copies exist beyond the serial bytes the columns already hold.
type certIndex struct {
	slots []uint32 // id+1; 0 means empty
	used  int
}

func serialHash(caSym uint16, serial []byte) uint64 {
	// FNV-1a over the CA symbol then the serial magnitude.
	h := uint64(14695981039346656037)
	h = (h ^ uint64(caSym&0xff)) * 1099511628211
	h = (h ^ uint64(caSym>>8)) * 1099511628211
	for _, b := range serial {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func (ix *certIndex) lookup(cols *columns, caSym uint16, serial []byte) (uint32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for probe := serialHash(caSym, serial) & mask; ; probe = (probe + 1) & mask {
		slot := ix.slots[probe]
		if slot == 0 {
			return 0, false
		}
		id := slot - 1
		if cols.caSym[id] == caSym && string(cols.serial(id)) == string(serial) {
			return id, true
		}
	}
}

// insert registers an ID already appended to the columns. The caller
// guarantees the key is not present.
func (ix *certIndex) insert(cols *columns, id uint32) {
	if ix.used*4 >= len(ix.slots)*3 {
		ix.grow(cols)
	}
	mask := uint64(len(ix.slots) - 1)
	probe := serialHash(cols.caSym[id], cols.serial(id)) & mask
	for ix.slots[probe] != 0 {
		probe = (probe + 1) & mask
	}
	ix.slots[probe] = id + 1
	ix.used++
}

func (ix *certIndex) grow(cols *columns) {
	size := 1024
	if len(ix.slots) > 0 {
		size = len(ix.slots) * 2
	}
	old := ix.slots
	ix.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for _, slot := range old {
		if slot == 0 {
			continue
		}
		id := slot - 1
		probe := serialHash(cols.caSym[id], cols.serial(id)) & mask
		for ix.slots[probe] != 0 {
			probe = (probe + 1) & mask
		}
		ix.slots[probe] = slot
	}
}
