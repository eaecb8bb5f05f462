// Package serialx defines the one canonical byte form of a certificate
// serial number used by every set-membership artifact in this repo — the
// CRLSet, the Bloom filter keys, and the filter cascade.
//
// The canonical form is the minimal big-endian magnitude: no leading zero
// octets, and the serial value zero is the empty slice (exactly what
// (*big.Int).Bytes returns). Serials that originate from big.Int — CA
// records, browser chain elements — are canonical already; serials that
// originate from parsed DER may in principle carry leading zeros (a
// hostile or sloppy encoder can pad an INTEGER), and two encodings of the
// same value must land on the same set entry. Every artifact therefore
// canonicalizes on both the build side and the probe side, so documented
// semantics ("keyed by the serial value") and behavior cannot drift.
package serialx

// Canon returns the canonical form of serial: the minimal big-endian
// magnitude with leading zero octets stripped. The zero serial (nil,
// empty, or all-zero input) canonicalizes to an empty slice. The result
// aliases the input's backing array — it is a subslice, never a copy —
// so it costs nothing on hot paths and callers who retain it must copy.
func Canon(serial []byte) []byte {
	i := 0
	for i < len(serial) && serial[i] == 0 {
		i++
	}
	return serial[i:]
}
