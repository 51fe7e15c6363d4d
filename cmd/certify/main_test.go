package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunGolden pins the CLI's stdout and exit code for a spread of flag
// sets: a tree-mso path, tw-mso with the decomposition summary, a usage
// error, a compile error, a prove failure, the full adversarial sweep and
// random bit flips. The golden files hold the exact bytes; -workers is
// fixed because the distributed line reports the worker count.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"tree-mso-path", []string{"-graph", "path", "-n", "64", "-scheme", "tree-mso", "-property", "perfect-matching", "-workers", "2"}, 0},
		{"tw-mso-decompose", []string{"-graph", "partial-k-tree", "-n", "30", "-t", "3", "-scheme", "tw-mso", "-property", "tw-bound", "-decompose", "-workers", "2"}, 0},
		{"unknown-scheme", []string{"-graph", "path", "-n", "8", "-scheme", "no-such-scheme"}, 2},
		{"unknown-property", []string{"-graph", "path", "-n", "8", "-scheme", "tree-mso", "-property", "no-such-property"}, 1},
		{"prove-fails", []string{"-graph", "path", "-n", "7", "-scheme", "tree-mso", "-property", "perfect-matching", "-workers", "2"}, 1},
		{"tamper-kind-all", []string{"-graph", "cycle", "-n", "16", "-t", "2", "-scheme", "tw-mso", "-property", "tw-bound", "-tamper-kind", "all", "-trials", "5", "-workers", "2"}, 0},
		{"tamper-flips", []string{"-graph", "path", "-n", "32", "-scheme", "tree-mso", "-property", "max-degree-<=2", "-tamper", "3", "-workers", "2"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if code := run(tc.args, &out); code != tc.exit {
				t.Fatalf("exit %d, want %d (stdout %q)", code, tc.exit, out.String())
			}
			if got := out.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}
