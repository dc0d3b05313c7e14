package experiments

import (
	"strings"
	"testing"
)

// The study table is fredsim's whole dispatch: names must be unique
// and the order is the `fredsim all` output order, which the
// byte-identical CI gates pin.
func TestStudiesUniqueAndOrdered(t *testing.T) {
	want := "hw fig1 meshio placement nonaligned fig2 fig9 fig10 fig11a fig11b scaling scaleout " +
		"inference crossover batch profile packets heat ablations ep faults summary"
	seen := map[string]bool{}
	var names []string
	for _, st := range Studies {
		if seen[st.Name] {
			t.Errorf("duplicate study %q", st.Name)
		}
		seen[st.Name] = true
		if st.Desc == "" || st.Run == nil {
			t.Errorf("study %q lacks a description or run function", st.Name)
		}
		if got, ok := LookupStudy(st.Name); !ok || got.Name != st.Name {
			t.Errorf("LookupStudy(%q) = %q, %v", st.Name, got.Name, ok)
		}
		names = append(names, st.Name)
	}
	if got := strings.Join(names, " "); got != want {
		t.Errorf("study order\n got %s\nwant %s", got, want)
	}
	if _, ok := LookupStudy("all"); ok {
		t.Error(`"all" must not be a study of its own`)
	}
}
