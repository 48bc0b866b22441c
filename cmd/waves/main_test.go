package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputPinned characterizes the command: each invocation's stdout
// must equal its golden file byte for byte (empty for the refused
// ones), with the pinned exit status.
func TestOutputPinned(t *testing.T) {
	for _, tc := range []struct {
		args   string
		golden string // testdata file; "" means empty stdout
		code   int
	}{
		{"-n 8 -p 3", "render.golden", 0},
		{"-n 8 -p 3 -analyze -sets tuned", "analyze_tuned.golden", 0},
		{"-n 8 -p 3 -analyze -sets paper", "analyze_paper.golden", 0},
		{"-n 8 -p 3 -analyze -sets roundrobin", "analyze_roundrobin.golden", 0},
		{"-n 8 -p 3 -analyze -domains 2 -size 3", "analyze_size3.golden", 0},
		{"-n 6 -p 3 -analyze", "", 1},             // Smax 30 too small for two data domains
		{"-n 8 -p 3 -analyze -domains 4", "", 1},  // Smax 42 too small for three
		{"-n 6 -p 3 -analyze -sets paper", "", 1}, // the paper's sets need Smax 42
		{"-n 8 -p 2 -analyze", "", 1},             // stride 4 cannot hold a 5-wide window
		{"-n 8 -p 3 -analyze -domains 1", "", 1},  // no data domain
		{"-n 8 -p 3 -analyze -sets bogus", "", 1}, // unknown assignment

		// Flag values outside the schedule's domain are errors, not panics.
		{"-n 1", "", 1},
		{"-p 0", "", 1},
		{"-n 0 -analyze", "", 1},
		{"-n 8 -p 3 -wave 99", "", 1},
		{"-wave -1", "", 1},
		{"-analyze -sets roundrobin -domains 0", "", 1},
		{"-analyze -sets roundrobin -size 0", "", 1},

		{"-n 8 -p 3 -no-such-flag", "", 2}, // flag error
		{"-h", "", 0},                      // usage goes to stderr
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("waves %s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		want := ""
		if tc.golden != "" {
			b, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			want = string(b)
		}
		if got := stdout.String(); got != want {
			t.Errorf("waves %s: stdout differs from %s:\n%s", tc.args, tc.golden, got)
		}
	}
}
