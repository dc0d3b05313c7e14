package critpath

import "github.com/wafernet/fred/internal/metrics"

// Schema is the critpath artifact schema identifier. Readers accept
// any "fred-critpath/*" version.
const Schema = "fred-critpath/v1"

// Artifact is the versioned machine-readable blame record: a run
// manifest (shared with fred-metrics artifacts) plus one analyzed
// iteration per cell, in cell order.
type Artifact struct {
	Schema   string           `json:"schema"`
	Manifest metrics.Manifest `json:"manifest"`
	Cells    []Iteration      `json:"cells"`
}

// Export wraps analyzed iterations into an artifact, stamping the
// manifest's engine version and canonical config hash.
func Export(m metrics.Manifest, cells []Iteration) *Artifact {
	return &Artifact{Schema: Schema, Manifest: m.Stamp(), Cells: cells}
}

// Encode renders the artifact as indented JSON with a trailing
// newline. Encoding uses only structs and slices (no maps), so the
// bytes are a pure function of the artifact — the basis of the
// byte-identical-at-every-pool-size guarantee.
func (a *Artifact) Encode() ([]byte, error) { return metrics.EncodeJSON(a) }

// Decode parses an artifact and validates its schema family.
func Decode(data []byte) (*Artifact, error) {
	return metrics.DecodeJSON(data, "critpath", func(a *Artifact) string { return a.Schema })
}

// WriteFile encodes the artifact to a file.
func (a *Artifact) WriteFile(path string) error { return metrics.WriteJSON(path, a) }

// ReadFile loads and validates an artifact from a file.
func ReadFile(path string) (*Artifact, error) { return metrics.ReadJSON(path, Decode) }
