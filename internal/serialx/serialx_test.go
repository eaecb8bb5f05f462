package serialx

import (
	"bytes"
	"math/big"
	"testing"
)

// TestCanon pins the canonical-form table shared by crlset, the Bloom
// key builder, and the cascade: minimal magnitude, zero is empty.
func TestCanon(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want []byte
	}{
		{"nil", nil, []byte{}},
		{"empty", []byte{}, []byte{}},
		{"zero", []byte{0x00}, []byte{}},
		{"double-zero", []byte{0x00, 0x00}, []byte{}},
		{"plain", []byte{0x05}, []byte{0x05}},
		{"leading-zero", []byte{0x00, 0x05}, []byte{0x05}},
		{"two-leading-zeros", []byte{0x00, 0x00, 0x05}, []byte{0x05}},
		{"trailing-zero-kept", []byte{0x01, 0x00}, []byte{0x01, 0x00}},
		{"high-bit", []byte{0x00, 0x80, 0x01}, []byte{0x80, 0x01}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Canon(tc.in)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("Canon(%x) = %x, want %x", tc.in, got, tc.want)
			}
			if len(got) > 0 && got[0] == 0 {
				t.Fatalf("Canon(%x) = %x is not canonical", tc.in, got)
			}
		})
	}
}

// TestCanonMatchesBigInt verifies the canonical form is exactly what
// big.Int produces, for round-trips through arithmetic paths.
func TestCanonMatchesBigInt(t *testing.T) {
	for _, raw := range [][]byte{nil, {0}, {0, 0, 7}, {1, 2, 3}, {0x00, 0xff, 0xfe}} {
		want := new(big.Int).SetBytes(raw).Bytes()
		if got := Canon(raw); !bytes.Equal(got, want) {
			t.Fatalf("Canon(%x) = %x, big.Int gives %x", raw, got, want)
		}
	}
}

// TestCanonAliases pins the no-copy contract.
func TestCanonAliases(t *testing.T) {
	in := []byte{0x00, 0x09}
	got := Canon(in)
	in[1] = 0x0a
	if got[0] != 0x0a {
		t.Fatal("Canon must alias its input, not copy it")
	}
}
