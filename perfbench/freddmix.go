package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/serve"
)

// Closed-loop shape of fredd-mix: fredd callers block on the reply, so
// each client sends its next request only once the previous answer's
// body has been read in full.
const (
	freddWorkers = 2
	freddClients = 2
)

// freddFields is the simulated part of a study result: everything
// the reference pins, nothing that depends on the request's timing.
type freddFields struct {
	Status      int                 `json:"status"`
	ConfigHash  string              `json:"config_hash"`
	Kind        string              `json:"kind"`
	System      string              `json:"system"`
	Workload    string              `json:"workload,omitempty"`
	Strategy    string              `json:"strategy,omitempty"`
	ElapsedSimS float64             `json:"elapsed_sim_s"`
	PerIterS    []float64           `json:"per_iter_s,omitempty"`
	Summary     *serve.StudySummary `json:"summary,omitempty"`
}

// freddReply is one answered request.
type freddReply struct {
	entry   int
	latency time.Duration
	cache   string
	fields  freddFields
	// counters are the simulation's public counters read from the
	// body's fred-metrics artifact.
	counters map[string]float64
	err      error
}

// freddMix drives an in-process fredd server on a loopback listener.
type freddMix struct {
	cat     []catalogueEntry
	plan    []int
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	replies []freddReply
}

func newFreddMix(seed int64, pass int, _ string) (passRunner, error) {
	f := &freddMix{cat: freddCatalogue(), plan: freddPlan(seed, pass)}
	f.srv = serve.NewServer(serve.Config{Workers: freddWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	f.base = "http://" + ln.Addr().String()
	f.httpSrv = &http.Server{Handler: f.srv}
	f.served = make(chan error, 1)
	go func() { f.served <- f.httpSrv.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: freddClients}}
	if err := f.awaitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// awaitReady polls /readyz until the server admits work.
func (f *freddMix) awaitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := f.client.Get(f.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fredd not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *freddMix) run(out *passResult) {
	f.replies = make([]freddReply, len(f.plan))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < freddClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(f.plan) {
					return
				}
				f.replies[i] = f.send(f.plan[i])
			}
		}()
	}
	wg.Wait()
	for _, r := range f.replies {
		out.JobLatMS = append(out.JobLatMS, float64(r.latency)/float64(time.Millisecond))
		out.JobClass = append(out.JobClass, f.cat[r.entry].class)
	}
	out.Jobs = len(f.replies)
}

// send posts one catalogue request and reads the whole reply.
func (f *freddMix) send(entry int) freddReply {
	rep := freddReply{entry: entry}
	body, err := json.Marshal(f.cat[entry].req)
	if err != nil {
		rep.err = err
		return rep
	}
	t0 := time.Now()
	resp, err := f.client.Post(f.base+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.latency = time.Since(t0)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.cache = resp.Header.Get("X-Fredd-Cache")
	rep.fields.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return rep
	}
	var res serve.StudyResult
	if err := json.Unmarshal(data, &res); err != nil {
		rep.err = fmt.Errorf("decoding result: %w", err)
		return rep
	}
	rep.fields = freddFields{
		Status: resp.StatusCode, ConfigHash: res.ConfigHash, Kind: res.Kind, System: res.System,
		Workload: res.Workload, Strategy: res.Strategy, ElapsedSimS: res.ElapsedSimS,
		PerIterS: res.PerIterS, Summary: res.Summary,
	}
	if rep.cache == "miss" {
		art, err := metrics.Decode(res.Metrics)
		if err != nil {
			rep.err = fmt.Errorf("decoding result metrics: %w", err)
			return rep
		}
		rep.counters = layerCounters(art)
	}
	return rep
}

func (f *freddMix) check(ref *references, out *passResult) {
	hits := 0
	seen := map[string]bool{}
	for _, r := range f.replies {
		out.Attempted++
		e := f.cat[r.entry]
		if r.err != nil {
			out.fail("fredd-mix: %s: %v", e.name, r.err)
			continue
		}
		want, ok := ref.FreddMix[e.name]
		if !ok {
			out.fail("fredd-mix: no reference for %s", e.name)
			continue
		}
		if !reflect.DeepEqual(r.fields, want) {
			out.fail("fredd-mix: %s answered %+v, reference %+v", e.name, r.fields, want)
			continue
		}
		if r.cache == "hit" {
			hits++
		}
		// Each distinct config is simulated once per pass; dedup
		// joiners also report "miss" but carry the same counters.
		if r.counters != nil && !seen[e.name] {
			seen[e.name] = true
			for k, v := range r.counters {
				out.addCounter(k, v)
			}
		}
	}
	if n := len(f.replies); n > 0 {
		out.addCounter("serve.cache_hit_ratio", float64(hits)/float64(n))
	}
	f.scrapeMetrics(out)
}

// scrapeMetrics reads the serve/* plane from /metrics.
func (f *freddMix) scrapeMetrics(out *passResult) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		out.fail("fredd-mix: /metrics: %v", err)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		out.fail("fredd-mix: /metrics: %v", err)
		return
	}
	art, err := metrics.Decode(data)
	if err != nil {
		out.fail("fredd-mix: /metrics: %v", err)
		return
	}
	for _, s := range art.Series {
		switch s.Name {
		case "serve/dedup_joined":
			out.addCounter("serve.dedup_joined", s.Scalar())
		case "serve/shed":
			out.addCounter("serve.shed", s.Scalar())
		case "serve/queue_wait_ms":
			out.addCounter("serve.queue_wait_ms", s.P50)
		case "serve/job_wall_ms":
			out.addCounter("serve.job_wall_ms", s.P50)
		case "serve/failed", "serve/panics", "serve/deadline_exceeded", "serve/rejected":
			if v := s.Scalar(); v != 0 {
				out.fail("fredd-mix: %s = %g", s.Name, v)
			}
		}
	}
}

func (f *freddMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.httpSrv.Shutdown(ctx)
	<-f.served
	f.srv.Close()
	f.client.CloseIdleConnections()
}

// recordRefs stores every answered entry's fields as its reference.
func (f *freddMix) recordRefs(ref *references) error {
	ref.FreddMix = map[string]freddFields{}
	var errs []error
	for _, r := range f.replies {
		name := f.cat[r.entry].name
		switch {
		case r.err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", name, r.err))
		case r.fields.Status != http.StatusOK:
			errs = append(errs, fmt.Errorf("%s: status %d", name, r.fields.Status))
		default:
			ref.FreddMix[name] = r.fields
		}
	}
	return errors.Join(errs...)
}
