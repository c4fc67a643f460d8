package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arthas/internal/experiments"
)

// runCmd runs the command in-process and returns its exit code and output.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestView prints one cheap view, byte-identical to its golden.
func TestView(t *testing.T) {
	code, stdout, stderr := runCmd("-exp", "table2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	want, err := os.ReadFile("../../testdata/bench/table2.txt")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Fatalf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestJSONHoldsOnlyWhatRan: -exp table7 -json runs the detection unit
// alone, prints its text, and writes a document with just its section.
func TestJSONHoldsOnlyWhatRan(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	code, stdout, stderr := runCmd("-exp", "table7", "-json", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "Table 7.") || !strings.HasSuffix(stdout, "wrote "+out+"\n") {
		t.Fatalf("stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var rows []experiments.Detection
	if len(doc) != 2 || string(doc["schema"]) != `"`+experiments.JSONSchema+`"` ||
		json.Unmarshal(doc["detection"], &rows) != nil || len(rows) != 12 {
		t.Fatalf("document:\n%s", data)
	}
}

// TestBadUsage: an unknown view, or a flag that no selected unit reads,
// exits 2 without running anything.
func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table10"},
		{"-exp", "table3", "-ycsb", "5"},
		{"-exp", "scrub", "-clients", "3"},
		{"-exp", "all", "-clients", "3"},
		{"-exp", "fig12", "-workers", "4"},
		{"-nope"},
	} {
		code, stdout, stderr := runCmd(args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
		if len(args) == 4 && !strings.Contains(stderr, "does not read "+args[2]) {
			t.Errorf("%v: stderr does not name the unread flag:\n%s", args, stderr)
		}
	}
}
