package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/workload"
)

// The shared CLI flags switch every collector on, and Write emits each
// requested artifact under the caller's manifest with one confirmation
// line per file.
func TestArtifactFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	a := NewArtifactFlags(fs, "tool")
	if err := fs.Parse([]string{"-linkstats", "-trace", path("t.json"), "-metrics", path("m.json"),
		"-critpath", path("c.json"), "-timeseries", path("ts.json")}); err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	var stderr bytes.Buffer
	stop, err := a.Start(s, "tool run", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if a.Recorder() == nil || a.Engine() != nil {
		t.Fatalf("recorder %v, engine %v", a.Recorder(), a.Engine())
	}
	if _, err := s.RunTraining(Baseline, workload.ResNet152(), parallelism.Strategy{MP: 1, DP: 20, PP: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(s.LinkStatsTables()); n != 1 {
		t.Errorf("%d hotspot tables, want 1", n)
	}
	if err := a.Write(s, metrics.Manifest{Tool: "tool", Command: "run"}, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ReadFile(path("m.json")); err != nil {
		t.Error(err)
	}
	if art, err := critpath.ReadFile(path("c.json")); err != nil || len(art.Cells) != 1 {
		t.Errorf("critpath artifact: %v", err)
	}
	if art, err := timeseries.ReadFile(path("ts.json")); err != nil || len(art.Cells) != 1 {
		t.Errorf("timeseries artifact: %v", err)
	}
	if fi, err := os.Stat(path("t.json")); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	for _, want := range []string{"metric series", "critical-path iterations", "flight-recorder cells", "trace events"} {
		if !strings.Contains(stderr.String(), "tool: wrote ") || !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q lacks %q", stderr.String(), want)
		}
	}
}
