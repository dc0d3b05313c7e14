package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary:
// runBench starts its own executable with "child" to run each pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(runChild(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPlansDependOnlyOnSeed(t *testing.T) {
	for pass := 0; pass < 4; pass++ {
		if !reflect.DeepEqual(paperAllPlan(7, pass), paperAllPlan(7, pass)) ||
			!reflect.DeepEqual(gridPlan(7, pass), gridPlan(7, pass)) ||
			!reflect.DeepEqual(freddPlan(7, pass), freddPlan(7, pass)) {
			t.Fatalf("pass %d: the same seed gave different plans", pass)
		}
	}
}

func TestSeedsChangeOnlyOrderAndMix(t *testing.T) {
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if reflect.DeepEqual(paperAllPlan(1, 0), paperAllPlan(2, 0)) {
		t.Error("seeds 1 and 2 gave the same study order")
	}
	if !reflect.DeepEqual(sorted(paperAllPlan(1, 0)), sorted(paperAllPlan(2, 0))) {
		t.Error("seeds 1 and 2 ran different study sets")
	}
	if !reflect.DeepEqual(sorted(gridPlan(1, 0)), []string{"hier", "naive"}) {
		t.Errorf("grid plan %v is not one hier and one naive run", gridPlan(1, 0))
	}

	// fredd-mix: every request is a catalogue entry, whose config does
	// not depend on the seed, and the class shares are fixed.
	cat := freddCatalogue()
	if !reflect.DeepEqual(cat, freddCatalogue()) {
		t.Fatal("catalogue is not fixed")
	}
	shares := func(plan []int) map[string]int {
		n := map[string]int{}
		for _, i := range plan {
			n[cat[i].class]++
		}
		return n
	}
	a, b := freddPlan(1, 0), freddPlan(2, 0)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 gave the same fredd plan")
	}
	want := map[string]int{classHot: freddHotShare, classTraining: freddTrainShare, classAllReduce: freddARShare}
	if !reflect.DeepEqual(shares(a), want) || !reflect.DeepEqual(shares(b), want) {
		t.Errorf("class shares %v and %v, want %v", shares(a), shares(b), want)
	}
	// Cold entries are distinct within a pass, so each is a cache miss.
	seen := map[int]bool{}
	for _, i := range a {
		if cat[i].class != classHot && seen[i] {
			t.Errorf("cold entry %s drawn twice in one pass", cat[i].name)
		}
		seen[i] = true
	}
	// The median must fall inside the all-reduce share and the 99th
	// percentile inside the heaviest training cluster (GPT-3, one
	// configuration per system), not on a boundary between classes.
	gpt3 := float64(len(freddSystems)) / freddPassRequests
	if lo, hi := float64(freddHotShare)/freddPassRequests, float64(freddHotShare+freddARShare)/freddPassRequests; lo > 0.4 || hi < 0.6 {
		t.Errorf("all-reduce share [%g, %g] does not hold the median with margin", lo, hi)
	}
	if 1-gpt3 > 0.97 {
		t.Errorf("heaviest cluster share %g does not hold the 99th percentile with margin", gpt3)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestDeclarationsMatchBenchmarkJSON pins BENCHMARK.json to the
// metrics the code declares and emits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	strip := func(ds []metricDecl) []metricDecl {
		out := make([]metricDecl, len(ds))
		for i, d := range ds {
			out[i] = metricDecl{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(bj.EndToEnd, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code:\n%+v\n%+v", bj.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(bj.PerLayer, strip(perLayer())) {
		want, _ := json.MarshalIndent(strip(perLayer()), "  ", "  ")
		t.Errorf("BENCHMARK.json per_layer differs from the code; the code declares:\n%s", want)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range bj.Workloads {
		if i >= len(names) || w.Name != names[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, code has %v", i, w.Name, names)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer()...) {
		if !namePattern.MatchString(d.Name) || !unitPattern.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// smoke runs the benchmark end to end, passes in child processes, and
// checks the result line.
func smoke(t *testing.T, workload string, traced bool) map[string]float64 {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := runBench(workload, 3, 0.01, traced, &out, &errOut); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, errOut.String())
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, errOut.String())
	}
	decls := endToEnd
	if traced {
		decls = perLayer()
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(res.Metrics), len(decls))
	}
	values := map[string]float64{}
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or with unit %q", workload, d.Name, v.Unit)
		}
		if !traced && !(v.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %g, want > 0", workload, d.Name, v.Value)
		}
		values[d.Name] = v.Value
	}
	return values
}

func TestSmokePaperAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study")
	}
	smoke(t, "paper-all", false)
	m := smoke(t, "paper-all", true)
	for _, st := range paperStudies {
		if m["experiments."+st.name+".wall_s"] <= 0 {
			t.Errorf("no span for study %s", st.name)
		}
	}
	for _, k := range []string{"training.iterations", "critpath.iterations", "netsim.flows_started", "critpath.alloc_mb", "training.cpu_s"} {
		if m[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, m[k])
		}
	}
}

func TestSmokeScaleoutGrid(t *testing.T) {
	smoke(t, "scaleout-grid", false)
	m := smoke(t, "scaleout-grid", true)
	if m["sim.events"] != 36879+1548 {
		t.Errorf("sim.events = %g, want %d", m["sim.events"], 36879+1548)
	}
	// The grid bypasses training, critpath and serve, and netsim is its
	// largest CPU bucket.
	for _, k := range []string{"training.cpu_s", "training.iterations", "critpath.cpu_s", "serve.cpu_s", "experiments.fig10.wall_s"} {
		if m[k] != 0 {
			t.Errorf("%s = %g, want 0", k, m[k])
		}
	}
	for _, d := range perLayer() {
		if raceEnabled {
			break
		}
		if strings.HasSuffix(d.Name, ".cpu_s") && d.Name != "profile.cpu_s" && m[d.Name] > m["netsim.cpu_s"] {
			t.Errorf("%s = %g exceeds netsim.cpu_s = %g", d.Name, m[d.Name], m["netsim.cpu_s"])
		}
	}
}

func TestSmokeFreddMix(t *testing.T) {
	smoke(t, "fredd-mix", false)
	m := smoke(t, "fredd-mix", true)
	for _, k := range []string{"serve.cache_hit_ratio", "serve.job_wall_ms", "training.iterations", "netsim.flows_started"} {
		if m[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, m[k])
		}
	}
	if m["sim.events"] != -1 {
		t.Errorf("sim.events = %g, want -1 (not observable from outside fredd)", m["sim.events"])
	}
}

// TestPerturbedReferenceIsCaught runs one pass of each workload and
// checks it twice: against the committed references, which it must
// match, and against references with one value nudged, which it must
// fail.
func TestPerturbedReferenceIsCaught(t *testing.T) {
	perturb := map[string]func(*references){
		"paper-all": func(r *references) { r.PaperAll["fig10"] = strings.Repeat("0", 64) },
		"scaleout-grid": func(r *references) {
			g := r.ScaleoutGrid["hier"]
			g.ElapsedS = math.Nextafter(g.ElapsedS, 1)
			r.ScaleoutGrid["hier"] = g
		},
		"fredd-mix": func(r *references) {
			for name, f := range r.FreddMix {
				if strings.HasPrefix(name, "ar-") {
					f.PerIterS = append([]float64(nil), f.PerIterS...)
					f.PerIterS[0] = math.Nextafter(f.PerIterS[0], 1)
					r.FreddMix[name] = f
				}
			}
		},
	}
	for _, w := range workloads {
		if testing.Short() && w.name == "paper-all" {
			continue
		}
		runner, err := w.new(5, 0, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		out := measurePass(runner, modePlain)
		ref, err := loadReferences()
		if err != nil {
			t.Fatal(err)
		}
		good := out
		runner.check(ref, &good)
		perturb[w.name](ref)
		bad := out
		runner.check(ref, &bad)
		runner.close()
		if good.Failed != 0 {
			t.Errorf("%s: %d failures against the committed references: %v", w.name, good.Failed, good.Failures)
		}
		if bad.Failed == 0 {
			t.Errorf("%s: a perturbed reference was not caught", w.name)
		}
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	runner, err := newScaleoutGrid(1, 0, modePlain)
	if err != nil {
		t.Fatal(err)
	}
	var out passResult
	runner.run(&out)
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	buckets, total := prof.attribute()
	if total <= 0 {
		t.Fatal("empty profile")
	}
	if err := checkBuckets("CPU", buckets, total); err != nil {
		t.Fatal(err)
	}
	if buckets["netsim"] <= 0 {
		t.Errorf("no netsim samples in %v", buckets)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		funcs  []string
		malloc bool
		want   string
	}{
		{[]string{"github.com/wafernet/fred/internal/netsim.(*Network).detach", "main.main"}, true, "netsim"},
		{[]string{"runtime.memmove", "github.com/wafernet/fred/internal/fred.route"}, true, "fred"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "github.com/wafernet/fred/internal/netsim.(*Network).StartFlow"}, true, bucketMalloc},
		{[]string{"runtime.mallocgc", "runtime.newobject", "github.com/wafernet/fred/internal/netsim.(*Network).StartFlow"}, false, "netsim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, true, bucketGC},
		{[]string{"encoding/json.Marshal", "main.(*freddMix).send"}, true, bucketBench},
		{[]string{"runtime.futex", "runtime.schedule"}, true, bucketOther},
		{[]string{"github.com/wafernet/fred/internal/serve.(*Server).handleSubmit.func1"}, true, "serve"},
	}
	for _, c := range cases {
		if got := bucketOf(c.funcs, c.malloc); got != c.want {
			t.Errorf("bucketOf(%v, %v) = %q, want %q", c.funcs, c.malloc, got, c.want)
		}
	}
}

func TestLayerDeltasRankSavings(t *testing.T) {
	base := &result{Metrics: map[string]metricValue{}}
	next := &result{Metrics: map[string]metricValue{}}
	for _, d := range perLayer() {
		base.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		next.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
	}
	next.Metrics["netsim.cpu_s"] = metricValue{Value: 0.4}
	next.Metrics["gc.cpu_s"] = metricValue{Value: 0.9}
	next.Metrics["critpath.alloc_mb"] = metricValue{Value: 0.2}
	next.Metrics["netsim.flows_started"] = metricValue{Value: 1.1}
	base.Metrics["sim.events"] = metricValue{Value: -1}
	next.Metrics["sim.events"] = metricValue{Value: 5}
	cpu, other := layerDeltas(base, next)
	if len(cpu) != 2 || cpu[0].decl.Name != "netsim.cpu_s" || cpu[1].decl.Name != "gc.cpu_s" {
		t.Errorf("CPU ranking %+v", cpu)
	}
	if len(other) != 2 || other[0].decl.Name != "critpath.alloc_mb" || other[1].decl.Name != "netsim.flows_started" {
		t.Errorf("other ranking %+v", other)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{12000: 0.99, 1000: 0.99, 500: 0.98, 40: 0.75, 10: 0.5} {
		if got := tailQuantile(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.99: 4.96} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}
