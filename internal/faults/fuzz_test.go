package faults

import (
	"math"
	"slices"
	"testing"
)

// eventBytes is how many fuzz bytes decode into one event.
const eventBytes = 5

// decodePlan turns fuzz bytes into at most 16 events: the kind ranges
// over the four real kinds and two unknown ones, the target reaches
// past the test network's three links and four nodes, and the times,
// factors and recoveries draw from small grids (so equal times are
// common) plus negative, NaN and infinite values.
func decodePlan(data []byte) Plan {
	special := func(b byte, scale float64) float64 {
		switch b {
		case 255:
			return math.NaN()
		case 254:
			return math.Inf(1)
		case 253:
			return -1
		}
		return float64(b%8) * scale
	}
	var p Plan
	for len(data) >= eventBytes && len(p.Events) < 16 {
		b := data[:eventBytes]
		data = data[eventBytes:]
		p.Events = append(p.Events, Event{
			At:      special(b[0], 1),
			Kind:    EventKind(int(b[1]%6) - 1),
			Target:  int(b[2]%8) - 1,
			Factor:  special(b[3], 0.25),
			Recover: special(b[4], 0.5),
		})
	}
	return p
}

// eventKey identifies an event bit for bit, NaNs included.
type eventKey struct {
	at, factor, recover uint64
	kind                EventKind
	target              int
}

func keyOf(e Event) eventKey {
	return eventKey{math.Float64bits(e.At), math.Float64bits(e.Factor), math.Float64bits(e.Recover), e.Kind, e.Target}
}

// FuzzPlan checks the plan pipeline on arbitrary plans: Normalize is a
// stable sort by time and idempotent, Validate does not depend on the
// event order, and a plan Schedule accepts runs to the end without a
// panic.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 2, 5, 2, 3, 4, 1, 0, 0, 3, 1, 3, 0, 0})
	f.Add([]byte{255, 1, 1, 0, 0, 254, 2, 1, 2, 255, 253, 5, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		authored := decodePlan(data).Events
		norm := Plan{Events: slices.Clone(authored)}.Normalize().Events

		// Map each normalized event back to an authored index, taking
		// the earliest unused one among identical events.
		used := make([]bool, len(authored))
		from := make([]int, len(norm))
		for i, e := range norm {
			from[i] = -1
			for j, a := range authored {
				if !used[j] && keyOf(a) == keyOf(e) {
					used[j], from[i] = true, j
					break
				}
			}
			if from[i] < 0 {
				t.Fatalf("Normalize: event %d (%v) is not one of the authored events", i, e)
			}
		}
		hasNaN := slices.ContainsFunc(authored, func(e Event) bool { return math.IsNaN(e.At) })
		for i := range norm {
			for j := i + 1; j < len(norm); j++ {
				if norm[i].At == norm[j].At && from[i] > from[j] {
					t.Fatalf("Normalize: events %d and %d share time %g but swapped their authored order", from[j], from[i], norm[i].At)
				}
			}
			if !hasNaN && i > 0 && norm[i].At < norm[i-1].At {
				t.Fatalf("Normalize: event %d at %g follows one at %g", i, norm[i].At, norm[i-1].At)
			}
		}
		again := Plan{Events: slices.Clone(norm)}.Normalize().Events
		for i := range norm {
			if keyOf(again[i]) != keyOf(norm[i]) {
				t.Fatalf("second Normalize moved event %d", i)
			}
		}

		errA, errN := Plan{Events: authored}.Validate(), Plan{Events: norm}.Validate()
		if (errA == nil) != (errN == nil) {
			t.Fatalf("Validate depends on order: authored %v, normalized %v", errA, errN)
		}

		s, net, _ := testNet()
		if NewInjector(net).OnSwitchFail(func(int) {}).Schedule(Plan{Events: authored}) == nil {
			s.Run()
		}
	})
}
