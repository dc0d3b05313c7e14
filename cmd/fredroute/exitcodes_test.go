package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes: the CLI error conventions — unknown flag or
// malformed flow syntax exit 2 with usage on stderr; a routing
// conflict exits 1; the default Figure 7(h) example exits 0.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		stderrHas string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"bad flow syntax", []string{"allreduce"}, 2, `bad flow "allreduce"`},
		{"unknown flow kind", []string{"gather:1,2>3"}, 2, `unknown flow kind "gather"`},
		{"bad port", []string{"allreduce:1,x,3"}, 2, `bad port "x"`},
		{"m out of range", []string{"-m", "1"}, 2, "-m 1 out of range"},
		{"p out of range", []string{"-p", "1"}, 2, "-p 1 out of range"},
		{"default example routes", nil, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.code, stderr.String())
			}
			if tc.code == 2 && !strings.Contains(stderr.String(), "usage: fredroute") {
				t.Errorf("exit 2 without usage on stderr: %q", stderr.String())
			}
			if tc.stderrHas != "" && !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.stderrHas)
			}
		})
	}
}

// Too many concurrent reductions for the color budget is a conflict,
// reported with the Section 5.3 options and exit 1.
func TestRunRoutingConflict(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// The Figure 7(j) triangle: three mutually conflicting all-reduces
	// cannot be 2-colored.
	code := run([]string{"allreduce:1,2", "allreduce:3,4", "allreduce:0,5", "allreduce:6,7"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "ROUTING CONFLICT") {
		t.Errorf("no conflict report on stdout: %q", stdout.String())
	}
}
