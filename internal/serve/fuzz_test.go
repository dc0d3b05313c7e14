package serve

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzStudyRequest drives the daemon's trust boundary: arbitrary bytes
// decoded as a JSON StudyRequest and normalized with hazards on and
// off. Every request that normalizes must be a fixed point of
// Normalize, must hash to a cache key that ignores the execution-only
// fields, and must get a deadline inside the server's envelope.
//
// Run the seed corpus with the ordinary test suite, or explore with:
// go test -run '^FuzzStudyRequest$' -fuzz=FuzzStudyRequest ./internal/serve
func FuzzStudyRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"training","workload":"resnet152","system":"Fred-D"}`,
		`{"kind":"allreduce","system":"Fred-D"}`,
		`{"kind":"allreduce","system":"Baseline","bytes":67108864}`,
		`{"kind":"training","workload":"t17b","system":"Fred-B"}`,
		`{"kind":"training","workload":"gpt3","system":"Fred-A","batch":32}`,
		`{"kind":"allreduce","system":"Fred-A","bytes":16777216,"iters":2,"faults":{"seed":3,"degrades":4,"horizon_s":4e-05}}`,
		`{"kind":"training","workload":"t17b","mp":4,"dp":2,"pp":2,"seed":7,"deadline_ms":1500,"idempotency_key":"k"}`,
		`{"kind":"spin","seed":1,"deadline_ms":9300000000000}`,
		`{"kind":"poison"}`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{cfg: Config{DefaultDeadline: 10 * time.Second, MaxDeadline: time.Minute}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded StudyRequest
		if json.Unmarshal(data, &decoded) != nil {
			t.Skip()
		}
		for _, hazards := range []bool{false, true} {
			r := cloneRequest(decoded)
			if r.Normalize(hazards) != nil {
				continue
			}
			first, key := cloneRequest(r), r.Key()
			if err := r.Normalize(hazards); err != nil {
				t.Fatalf("second Normalize of %+v: %v", first, err)
			}
			if !reflect.DeepEqual(r, first) {
				t.Fatalf("Normalize not idempotent: %+v became %+v", first, r)
			}
			if got := r.Key(); got != key {
				t.Fatalf("Key changed across Normalize: %s != %s", got, key)
			}
			other := cloneRequest(r)
			other.DeadlineMS = r.DeadlineMS + 1
			other.IdempotencyKey = r.IdempotencyKey + "x"
			if got := other.Key(); got != key {
				t.Fatalf("Key depends on execution-only fields: %s != %s", got, key)
			}
			if d := s.deadlineFor(&r); d <= 0 || d > s.cfg.MaxDeadline {
				t.Fatalf("deadlineFor(%d ms) = %v, outside (0, %v]", r.DeadlineMS, d, s.cfg.MaxDeadline)
			}
		}
	})
}

// cloneRequest deep-copies a request, so normalizing the copy leaves
// the original's fault spec untouched.
func cloneRequest(r StudyRequest) StudyRequest {
	if r.Faults != nil {
		f := *r.Faults
		r.Faults = &f
	}
	return r
}
