package crlset_test

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/crl"
	"repro/internal/crlset"
)

// Generate applies Google's documented CRLSet rules: only public CRLs,
// only CRLSet-eligible reason codes, oversized CRLs dropped wholesale.
func ExampleGenerate() {
	var parentA, parentB crlset.Parent
	parentA[0], parentB[0] = 1, 2
	sources := []crlset.SourceCRL{
		{Parent: parentA, URL: "http://small.example/1.crl", Public: true, Entries: []crl.Entry{
			{Serial: big.NewInt(100).Bytes(), Reason: crl.ReasonKeyCompromise},
			{Serial: big.NewInt(101).Bytes(), Reason: crl.ReasonSuperseded}, // filtered: not CRLSet-eligible
		}},
		{Parent: parentB, URL: "http://private.example/1.crl", Public: false, Entries: []crl.Entry{
			{Serial: big.NewInt(200).Bytes(), Reason: crl.ReasonKeyCompromise}, // skipped: not crawled
		}},
	}
	set := crlset.Generate(crlset.GeneratorConfig{FilterReasons: true}, sources, 1)
	fmt.Println("entries:", set.NumEntries())
	fmt.Println("covers 100:", set.Covers(parentA, big.NewInt(100)))
	fmt.Println("covers 101:", set.Covers(parentA, big.NewInt(101)))
	fmt.Println("covers 200:", set.Covers(parentB, big.NewInt(200)))
	// Output:
	// entries: 1
	// covers 100: true
	// covers 101: false
	// covers 200: false
}

func ExampleSet_Marshal() {
	set := crlset.NewSet(42)
	var parent crlset.Parent
	set.Add(parent, big.NewInt(7))
	data, _ := set.Marshal()
	headerLen := int(binary.LittleEndian.Uint16(data))
	fmt.Printf("%s\n", data[2:2+headerLen])
	fmt.Println(len(data), set.Size())
	// Output:
	// {"ContentType":"CRLSet","Sequence":42,"NumParents":1,"BlockedSPKIs":0}
	// 110 110
}
