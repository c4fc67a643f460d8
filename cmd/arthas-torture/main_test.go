package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arthas/internal/torture"
)

const (
	counterPML = "../../testdata/counter.pml"
	counterRun = "init_; bump; bump"
)

// runCmd runs the command in-process and returns its exit code and output.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestModesSmoke runs one small sweep per mode, plus a replay, and checks
// the exit code, the report on stdout and the summary on stderr.
func TestModesSmoke(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		summary string
		report  any
	}{
		{"crash", []string{"-points", "6", "-workers", "2", "-recover", "recover_", counterPML, counterRun},
			"6 trials", &torture.Report{}},
		{"opt", []string{"-opt", "-points", "4", "-recover", "recover_", "../../testdata/native.pml", "init_; append_ 5"},
			"equivalence:", &torture.Report{}},
		{"media", []string{"-media", "-points", "4", "-recover", "recover_", "-probe", "value", counterPML, counterRun},
			"media sweep", &torture.MediaReport{}},
		{"repl", []string{"-repl", "-points", "4", "-recover", "recover_", "-probe", "value", counterPML, counterRun},
			"repl sweep", &torture.ReplReport{}},
		{"replay", []string{"-replay", "../../testdata/torture/counter-preroot.json", counterPML},
			"counter-preroot.json: ", &torture.TrialResult{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.summary) {
				t.Fatalf("stderr lacks %q:\n%s", tc.summary, stderr)
			}
			dec := json.NewDecoder(strings.NewReader(stdout))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.report); err != nil {
				t.Fatalf("stdout is not the mode's report: %v\n%s", err, stdout)
			}
		})
	}
}

// TestOutputsAndViolations: -o writes the report to a file, -imagedir saves
// the corrupt images, and a sweep that finds a violation exits 1.
func TestOutputsAndViolations(t *testing.T) {
	dir := t.TempDir()
	out, imgs := filepath.Join(dir, "media.json"), filepath.Join(dir, "img")
	code, stdout, stderr := runCmd("-media", "-points", "3", "-imagedir", imgs, "-o", out, counterPML, counterRun)
	if code != 0 || stdout != "" {
		t.Fatalf("-media -o: exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
	if data, err := os.ReadFile(out); err != nil || !json.Valid(data) {
		t.Fatalf("-o report unreadable: %v", err)
	}
	if saved, _ := filepath.Glob(filepath.Join(imgs, "counter-media-*.img")); len(saved) == 0 {
		t.Fatal("-imagedir saved no images")
	}
	// "value" dereferences the root unguarded: a crash before setroot makes
	// recovery fail for good.
	if code, _, stderr := runCmd("-seed", "4", "-recover", "value", counterPML, "init_; bump"); code != 1 {
		t.Fatalf("broken recovery: exit %d, want 1; stderr:\n%s", code, stderr)
	}
}

// TestRejectsIgnoredFlags: a flag the chosen mode would ignore is a usage
// error (exit 2), not silently dropped.
func TestRejectsIgnoredFlags(t *testing.T) {
	seed := "../../testdata/torture/counter-preroot.json"
	rejected := [][]string{
		{"-media", "-repl", counterPML, counterRun},
		{"-imagedir", t.TempDir(), counterPML, counterRun},
		{"-repl", "-imagedir", t.TempDir(), counterPML, counterRun},
		{"-media", "-opt", counterPML, counterRun},
		{"-repl", "-opt", counterPML, counterRun},
		{"-media", "-depth", "2", counterPML, counterRun},
		{"-repl", "-depth", "2", counterPML, counterRun},
		{"-media", "-torn=false", counterPML, counterRun},
		{counterPML},
		{"-replay", seed, counterPML, counterRun},
	}
	for _, f := range [][]string{
		{"-seed", "2"}, {"-points", "3"}, {"-workers", "2"}, {"-depth", "1"},
		{"-torn=true"}, {"-recover", "recover_"}, {"-probe", "value"},
		{"-media"}, {"-repl"}, {"-imagedir", t.TempDir()}, {"-opt"},
	} {
		rejected = append(rejected, append(append([]string{"-replay", seed}, f...), counterPML))
	}
	for _, args := range rejected {
		code, stdout, stderr := runCmd(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage:") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 with usage", args, code, stdout, stderr)
		}
	}
}
