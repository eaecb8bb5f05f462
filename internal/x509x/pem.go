package x509x

import (
	"encoding/pem"
	"errors"
	"fmt"
)

// ParsePEMCertificates parses every CERTIFICATE block in data. Non-certificate
// blocks are skipped; at least one certificate must be present.
func ParsePEMCertificates(data []byte) ([]*Certificate, error) {
	var out []*Certificate
	for len(data) > 0 {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != "CERTIFICATE" {
			continue
		}
		c, err := Parse(block.Bytes)
		if err != nil {
			return nil, fmt.Errorf("x509x: PEM certificate %d: %w", len(out), err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, errors.New("x509x: no CERTIFICATE blocks found")
	}
	return out, nil
}
