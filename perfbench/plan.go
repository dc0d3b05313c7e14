package main

import (
	"fmt"
	"math/rand"

	"github.com/wafernet/fred/internal/serve"
)

// passRand returns the deterministic random stream of one pass: the
// run's seed picks the stream family, the pass index the member, so a
// seed reproduces every pass's inputs exactly.
func passRand(seed int64, pass int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
}

// paperAllPlan is the study order of one paper-all pass: every study
// of `fredsim all`, shuffled by the seed.
func paperAllPlan(seed int64, pass int) []string {
	order := make([]string, len(paperStudies))
	for i, st := range paperStudies {
		order[i] = st.name
	}
	r := passRand(seed, pass)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// gridPlan is the variant order of one scaleout-grid pass.
func gridPlan(seed int64, pass int) []string {
	if passRand(seed, pass).Intn(2) == 0 {
		return []string{"hier", "naive"}
	}
	return []string{"naive", "hier"}
}

// Request classes of the fredd-mix catalogue.
const (
	classHot       = "hot"
	classAllReduce = "allreduce"
	classTraining  = "training"
)

// catalogueEntry is one fixed fredd request. Its name keys the
// committed reference of its simulated result.
type catalogueEntry struct {
	name  string
	class string
	req   serve.StudyRequest
}

// Shape of one fredd-mix pass. Latency rises class by class (cache
// hits, faulted all-reduces, training iterations), so with these
// shares the median falls well inside the all-reduce class and the
// 99th percentile inside the heaviest training cluster, the five
// GPT-3 configs, never on a class boundary. Cold entries are drawn
// without replacement within a pass: each pass runs on a fresh server,
// so they are all cache misses.
const (
	freddPassRequests = 100
	freddHotShare     = 30
	freddTrainShare   = 20
	freddARShare      = freddPassRequests - freddHotShare - freddTrainShare
)

var (
	freddModels     = []string{"resnet152", "t17b", "gpt3", "t1t"}
	freddSystems    = []string{"Baseline", "Fred-A", "Fred-B", "Fred-C", "Fred-D"}
	freddARSystems  = []string{"Baseline", "Fred-A"}
	freddFaultSeeds = 64
)

// freddCatalogue lists every request fredd-mix can send, in a fixed
// order: a few hot configs, every model × system training iteration,
// and seeded faulted all-reduces on the mesh baseline and Fred-A.
func freddCatalogue() []catalogueEntry {
	var cat []catalogueEntry
	hot := []serve.StudyRequest{
		{Kind: serve.KindTraining, Workload: "resnet152", System: "Fred-D"},
		{Kind: serve.KindAllReduce, System: "Fred-D"},
		{Kind: serve.KindAllReduce, System: "Baseline", Bytes: 64 << 20},
		{Kind: serve.KindTraining, Workload: "t17b", System: "Fred-B"},
	}
	for i, r := range hot {
		cat = append(cat, catalogueEntry{name: fmt.Sprintf("hot%d", i), class: classHot, req: r})
	}
	for _, m := range freddModels {
		for _, sys := range freddSystems {
			cat = append(cat, catalogueEntry{
				name:  "train-" + m + "-" + sys,
				class: classTraining,
				req:   serve.StudyRequest{Kind: serve.KindTraining, Workload: m, System: sys, Batch: 32},
			})
		}
	}
	// Each all-reduce runs twice. The fault horizon, 40 µs, is about one
	// iteration on either fabric, so the degradations land while traffic
	// is in flight and the second iteration recompiles its schedule for
	// the changed fabric. The plans only degrade links: a link that
	// fails in flight aborts the collective on either fabric (fredd
	// answers 422), and a catalogue entry must not fail.
	spec := serve.FaultSpec{Degrades: 4, HorizonS: 40e-6}
	for _, sys := range freddARSystems {
		for s := 1; s <= freddFaultSeeds; s++ {
			spec := spec
			spec.Seed = int64(s)
			cat = append(cat, catalogueEntry{
				name:  fmt.Sprintf("ar-%s-%d", sys, s),
				class: classAllReduce,
				req: serve.StudyRequest{
					Kind: serve.KindAllReduce, System: sys, Bytes: 16 << 20, Iters: 2, Faults: &spec,
				},
			})
		}
	}
	return cat
}

// freddPlan is the request sequence of one fredd-mix pass, as indices
// into the catalogue: the class shares are fixed, the seed picks the
// entries and the order.
func freddPlan(seed int64, pass int) []int {
	cat := freddCatalogue()
	byClass := map[string][]int{}
	for i, e := range cat {
		byClass[e.class] = append(byClass[e.class], i)
	}
	r := passRand(seed, pass)
	var plan []int
	for i := 0; i < freddHotShare; i++ {
		hot := byClass[classHot]
		plan = append(plan, hot[r.Intn(len(hot))])
	}
	draw := func(class string, n int) {
		pool := byClass[class]
		for _, k := range r.Perm(len(pool))[:n] {
			plan = append(plan, pool[k])
		}
	}
	draw(classTraining, freddTrainShare)
	draw(classAllReduce, freddARShare)
	r.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}
