package timeseries

import "github.com/wafernet/fred/internal/metrics"

// Schema is the timeseries artifact schema identifier. Readers accept
// any "fred-timeseries/*" version.
const Schema = "fred-timeseries/v1"

// SeriesData is the artifact encoding of one sampled series: the probe
// name/unit and its retained (time, value) samples. Samples share the
// cell's time base, but are stored per series so partial readers can
// skip series they do not care about.
type SeriesData struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit,omitempty"`
	Samples [][2]float64 `json:"samples"`
}

// Cell is one simulation's recorded series: the label names the system
// under test, IntervalS is the final (post-decimation) sampling
// interval, and Decimations counts how many times the ring halved.
type Cell struct {
	Label       string       `json:"label,omitempty"`
	IntervalS   float64      `json:"interval_s"`
	Decimations int          `json:"decimations,omitempty"`
	Series      []SeriesData `json:"series"`
}

// Artifact is the versioned machine-readable flight-recorder output: a
// run manifest (shared with fred-metrics artifacts) plus one cell per
// recorded simulation, in cell order.
type Artifact struct {
	Schema   string           `json:"schema"`
	Manifest metrics.Manifest `json:"manifest"`
	Cells    []Cell           `json:"cells"`
}

// Snapshot freezes a recorder into its artifact cell. The encoding is
// fully determined by the recorder state: series in probe-registration
// order, samples in time order.
func (r *Recorder) Snapshot() Cell {
	c := Cell{Label: r.label, IntervalS: r.interval, Decimations: r.decimations}
	for i, p := range r.probes {
		sd := SeriesData{Name: p.Name, Unit: p.Unit, Samples: make([][2]float64, len(r.times))}
		for j, t := range r.times {
			sd.Samples[j] = [2]float64{t, r.vals[i][j]}
		}
		c.Series = append(c.Series, sd)
	}
	return c
}

// Export wraps recorder snapshots into an artifact, stamping the
// manifest's engine version and canonical config hash.
func Export(m metrics.Manifest, cells []Cell) *Artifact {
	return &Artifact{Schema: Schema, Manifest: m.Stamp(), Cells: cells}
}

// Encode renders the artifact as indented JSON with a trailing
// newline. Encoding uses only structs and slices (no maps), so the
// bytes are a pure function of the artifact — the basis of the
// byte-identical-at-every-pool-size guarantee.
func (a *Artifact) Encode() ([]byte, error) { return metrics.EncodeJSON(a) }

// Decode parses an artifact and validates its schema family.
func Decode(data []byte) (*Artifact, error) {
	return metrics.DecodeJSON(data, "timeseries", func(a *Artifact) string { return a.Schema })
}

// WriteFile encodes the artifact to a file.
func (a *Artifact) WriteFile(path string) error { return metrics.WriteJSON(path, a) }

// ReadFile loads and validates an artifact from a file.
func ReadFile(path string) (*Artifact, error) { return metrics.ReadJSON(path, Decode) }
