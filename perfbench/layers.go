package main

// metricDecl declares one reported metric. For a per-layer metric,
// target names the end-to-end metric a change to the layer should
// move and on names the workloads where it should; flat names where a
// change to the layer should show no movement.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Target string  `json:"-"`
	On     string  `json:"-"`
	Flat   string  `json:"-"`
}

// endToEnd lists the end-to-end metrics. Every workload reports every
// one: on paper-all and scaleout-grid a job is one pass (see
// tailQuantile for what job_p99_ms means there).
//
// Bounds: host time on a small shared host drifts by ±10% between
// runs a few minutes apart, so every timing gets the widest bound the
// benchmark allows; allocation counts and volumes repeat to within a
// few parts in ten thousand, so they are gated tightly.
var endToEnd = []metricDecl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// internalPackages are the repository's layers, one profile bucket
// each.
var internalPackages = []string{
	"collective", "critpath", "experiments", "faults", "fred", "linklayer",
	"meshrouter", "metrics", "multiwafer", "netsim", "obs", "parallelism",
	"placement", "report", "serve", "sim", "timeseries", "topology",
	"trace", "training", "waferscale", "workload",
}

// allocPackages are the layers whose allocation volume is reported.
var allocPackages = []string{
	"collective", "critpath", "experiments", "faults", "fred", "meshrouter",
	"metrics", "multiwafer", "netsim", "serve", "topology", "training",
}

// layerTargets gives, per layer, the end-to-end metric it should move,
// where, and where it should stay flat.
var layerTargets = map[string][3]string{
	"experiments": {"wall_s", "paper-all", "scaleout-grid fredd-mix"},
	"topology":    {"wall_s job_p50_ms", "paper-all fredd-mix scaleout-grid", ""},
	"fred":        {"wall_s job_p50_ms", "paper-all fredd-mix", "scaleout-grid"},
	"multiwafer":  {"wall_s", "scaleout-grid", "paper-all fredd-mix"},
	"collective":  {"job_p50_ms wall_s", "fredd-mix scaleout-grid", "paper-all"},
	"sim":         {"wall_s", "scaleout-grid", ""},
	"netsim":      {"wall_s allocs_per_pass", "scaleout-grid paper-all", ""},
	"training":    {"wall_s allocs_per_pass job_p99_ms", "paper-all fredd-mix", "scaleout-grid"},
	"critpath":    {"alloc_mb_per_pass", "paper-all", "scaleout-grid fredd-mix"},
	"metrics":     {"job_p50_ms", "fredd-mix", "scaleout-grid"},
	"faults":      {"job_p99_ms", "fredd-mix", "scaleout-grid"},
	"meshrouter":  {"wall_s", "paper-all", "scaleout-grid fredd-mix"},
	"serve":       {"jobs_per_s job_p99_ms", "fredd-mix", "paper-all scaleout-grid"},
	"gc":          {"wall_s", "paper-all scaleout-grid fredd-mix", ""},
	"malloc":      {"wall_s allocs_per_pass", "paper-all scaleout-grid fredd-mix", ""},
}

func layerDecl(layer, name, unit, better string) metricDecl {
	d := metricDecl{Name: name, Unit: unit, Better: better}
	if t, ok := layerTargets[layer]; ok {
		d.Target, d.On, d.Flat = t[0], t[1], t[2]
	} else {
		d.Target, d.On = "wall_s", "where its share is non-zero"
	}
	return d
}

// perLayer lists the per-layer metrics of a traced run, in report
// order. Every workload reports every one: a layer the workload does
// not drive reads 0, and a count the benchmark cannot reach from
// outside on that workload reads -1.
func perLayer() []metricDecl {
	var ds []metricDecl
	for _, st := range paperStudies {
		ds = append(ds, layerDecl("experiments", "experiments."+st.name+".wall_s", "s", "lower"))
	}
	for _, n := range []string{"build_s", "schedule_s", "run_hier_s", "run_naive_s"} {
		ds = append(ds, layerDecl("multiwafer", "multiwafer."+n, "s", "lower"))
	}
	ds = append(ds,
		layerDecl("sim", "sim.events", "count", "lower"),
		layerDecl("sim", "sim.events_per_s", "1/s", "higher"),
	)
	for _, n := range []string{"recomputes", "fill_passes", "domains_filled", "flows_filled", "flows_started"} {
		ds = append(ds, layerDecl("netsim", "netsim."+n, "count", "lower"))
	}
	ds = append(ds,
		layerDecl("netsim", "netsim.fill_useful", "ratio", "higher"),
		layerDecl("training", "training.iterations", "count", "lower"),
		layerDecl("critpath", "critpath.iterations", "count", "lower"),
		layerDecl("serve", "serve.cache_hit_ratio", "ratio", "higher"),
		layerDecl("serve", "serve.dedup_joined", "count", "higher"),
		layerDecl("serve", "serve.shed", "count", "lower"),
		layerDecl("serve", "serve.queue_wait_ms", "ms", "lower"),
		layerDecl("serve", "serve.job_wall_ms", "ms", "lower"),
		layerDecl("gc", "gc.cycles", "count", "lower"),
		layerDecl("gc", "gc.pause_ms", "ms", "lower"),
	)
	for _, p := range append(append([]string{}, internalPackages...), bucketGC, bucketMalloc, bucketBench, bucketOther) {
		ds = append(ds, layerDecl(p, p+".cpu_s", "s", "lower"))
	}
	for _, p := range append(append([]string{}, allocPackages...), bucketBench, bucketOther) {
		ds = append(ds, layerDecl(p, p+".alloc_mb", "MB", "lower"))
	}
	ds = append(ds,
		metricDecl{Name: "profile.cpu_s", Unit: "s", Better: "lower", Target: "n/a", On: "all"},
		metricDecl{Name: "profile.alloc_mb", Unit: "MB", Better: "lower", Target: "n/a", On: "all"},
		metricDecl{Name: "trace.overhead", Unit: "ratio", Better: "lower", Target: "n/a", On: "all"},
	)
	return ds
}
