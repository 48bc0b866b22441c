package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"surfbless/internal/experiments"
)

// TestWritesTables: one stage's tables go to stdout and, under -out, to
// a .txt and a .csv file each.
func TestWritesTables(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "tiny", "-fig", "table1", "-no-cache", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	tab := experiments.Table1()
	if want := tab.String() + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
	for ext, want := range map[string]string{".txt": tab.String(), ".csv": tab.CSV()} {
		got, err := os.ReadFile(filepath.Join(dir, "table1_table_1_parameters"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s file %q, want %q", ext, got, want)
		}
	}
}

// TestRefusals: a request the command cannot serve exits nonzero
// before it prints a table.  Figs. 8–10 come from -fig apps, so fig9
// is unknown.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"-fig fig9", 1, `unknown -fig "fig9"`},
		{"-scale bogus", 1, `unknown scale "bogus"`},
		{"-shards 2", 2, "flag provided but not defined: -shards"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(strings.Fields(tc.args), "-no-cache"), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("experiments %s: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("experiments %s: stdout %q, want empty", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("experiments %s: stderr %q lacks %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestWriteFailureExits: an output file that cannot be written stops
// the run with exit 1 instead of passing unnoticed.
func TestWriteFailureExits(t *testing.T) {
	dir := t.TempDir()
	// A directory where the table's .txt file should go.
	if err := os.Mkdir(filepath.Join(dir, "table1_table_1_parameters.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "tiny", "-fig", "table1", "-no-cache", "-out", dir}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "experiments:") {
		t.Errorf("stderr %q names no error", stderr.String())
	}
}
