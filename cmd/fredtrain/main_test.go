package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	fredapi "github.com/wafernet/fred"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// fredtrain resolves -model through the shared exact-match lookup
// after lower-casing it, so every alias is accepted in any case. The
// model is checked before the system, so an accepted model gets as far
// as the (cheap) unknown-system exit.
func TestLookupModel(t *testing.T) {
	for _, name := range []string{"resnet152", "t17b", "gpt3", "t1t", "RESNET", "Transformer17B"} {
		var stderr bytes.Buffer
		if code := run([]string{"-model", name, "-system", "Fred-Z"}, io.Discard, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), `unknown system "Fred-Z"`) {
			t.Errorf("-model %s: exit %d, stderr %q", name, code, stderr.String())
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-model", "bert"}, io.Discard, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), `unknown model "bert"`) {
		t.Errorf("unknown model: exit %d, stderr %q", code, stderr.String())
	}
}

func TestLookupSchedule(t *testing.T) {
	if s, err := lookupSchedule("GPipe"); err != nil || s.String() != "GPipe" {
		t.Errorf("gpipe lookup: %v %v", s, err)
	}
	if s, err := lookupSchedule("1f1b"); err != nil || s.String() != "1F1B" {
		t.Errorf("1f1b lookup: %v %v", s, err)
	}
	if _, err := lookupSchedule("zero-bubble"); err == nil {
		t.Error("unknown schedule accepted")
	}
}

// trainArtifact runs the fredtrain metrics path (one training run
// under a metrics-collecting session, recorded and exported by the
// session) for a given worker-pool size and returns the encoded
// artifact.
func trainArtifact(t *testing.T, parallel int) []byte {
	t.Helper()
	m, _ := experiments.LookupModel("t17b")
	session := experiments.NewSession()
	session.SetParallel(parallel)
	session.CollectMetrics(true)
	if _, err := session.Train(experiments.Baseline, training.Config{
		Model:               m,
		Strategy:            workloadStrategy(m),
		MinibatchPerReplica: 16,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := session.Metrics().Export(metrics.Manifest{
		Tool:            "fredtrain",
		Workload:        m.Name,
		System:          "Baseline",
		Strategy:        workloadStrategy(m).String(),
		BatchPerReplica: 16,
		Schedule:        training.ScheduleGPipe.String(),
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func workloadStrategy(m *workload.Model) fredapi.Strategy {
	return fredapi.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
}

// The fredtrain golden gate: the exported metrics artifact is
// byte-identical regardless of the session's worker-pool size and
// across repeated runs.
func TestTrainMetricsByteIdentical(t *testing.T) {
	seq := trainArtifact(t, 1)
	if !bytes.Contains(seq, []byte(`"schema": "fred-metrics/v1"`)) {
		t.Fatalf("artifact missing schema header:\n%.200s", seq)
	}
	if !bytes.Contains(seq, []byte("npu/000/idle_s")) {
		t.Fatal("artifact missing per-NPU attribution series")
	}
	for _, n := range []int{2, 4} {
		if got := trainArtifact(t, n); !bytes.Equal(got, seq) {
			t.Fatalf("pool size %d artifact differs from sequential", n)
		}
	}
}
