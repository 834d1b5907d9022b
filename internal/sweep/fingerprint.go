package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// CanonicalJSON returns the canonical wire encoding of the spec: defaults
// applied, fields in declaration order (encoding/json emits struct fields
// deterministically), probes sorted and deduplicated. Two specs that run
// identically — e.g. one written with zero fields and one with the defaults
// spelled out — canonicalise to the same bytes.
func (s RunSpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.Defaults())
}

// Fingerprint returns the hex SHA-256 of the spec's canonical JSON: the
// content address under which internal/store files the spec's history and
// the run id internal/serve hands out. Every spec has one: a run's result is
// a pure function of its serializable fields.
func (s RunSpec) Fingerprint() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return fingerprintJSON(b), nil
}

// fingerprintJSON hashes an already-canonical JSON encoding. Shared by
// RunSpec.Fingerprint and Spec.Fingerprint so both id families use the same
// digest scheme.
func fingerprintJSON(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
