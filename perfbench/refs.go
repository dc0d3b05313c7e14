package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// references are the committed simulated outputs every pass is
// checked against. They are keyed by study, variant and catalogue
// entry, never by pass or seed: a seed changes only the order and mix
// of the work, not any config's result.
type references struct {
	// PaperAll maps each study to the SHA-256 of its CSV tables.
	PaperAll map[string]string `json:"paper_all"`
	// ScaleoutGrid maps "hier" and "naive" to the exact completion
	// time and FillStats of the 16×16 grid.
	ScaleoutGrid map[string]gridResult `json:"scaleout_grid"`
	// FreddMix maps each catalogue entry to its reply's status and
	// simulated fields.
	FreddMix map[string]freddFields `json:"fredd_mix"`
}

// refsPath is where the references live, relative to the root of a
// checkout.
const refsPath = "perfbench/references.json"

//go:embed references.json
var committedRefs []byte

func loadReferences() (*references, error) {
	var ref references
	if err := json.Unmarshal(committedRefs, &ref); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", refsPath, err)
	}
	return &ref, nil
}

// runWriteRefs regenerates references.json from the current program:
// one pass of each batch workload and every fredd catalogue entry
// once. Run it from the root of a checkout when a change is meant to
// alter simulated results, and review the diff.
func runWriteRefs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench refs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", refsPath, "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ref := &references{}
	for _, w := range workloads {
		runner, err := w.new(1, 0, modePlain)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if f, ok := runner.(*freddMix); ok {
			f.plan = f.plan[:0]
			for i := range f.cat {
				f.plan = append(f.plan, i)
			}
		}
		var res passResult
		runner.run(&res)
		err = runner.recordRefs(ref)
		runner.close()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: recorded\n", w.name)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}
