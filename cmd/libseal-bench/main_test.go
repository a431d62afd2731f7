package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var sweepIDs = []string{"groupcommit", "shards", "checks", "mirror"}

func readBenchFile(t *testing.T, path string) benchFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("%s does not parse as the tool's file type: %v", path, err)
	}
	return f
}

func TestExperimentTable(t *testing.T) {
	var list bytes.Buffer
	printList(&list)
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment id %q is listed twice", e.id)
		}
		seen[e.id] = true
		if !strings.Contains(list.String(), "  "+e.id+" ") || !strings.Contains(list.String(), e.title) {
			t.Errorf("-list omits %q", e.id)
		}
		if e.run == nil || len(e.cols) == 0 {
			t.Errorf("experiment %q has no run function or no columns", e.id)
		}
	}
	for _, id := range sweepIDs {
		if !seen[id] {
			t.Errorf("sweep %q is missing from the table", id)
		}
	}
	if len(experiments) != 19 {
		t.Errorf("%d experiments, want the paper's 15 and the 4 sweeps", len(experiments))
	}
	if _, err := selectExperiments("sec68,nope"); err == nil {
		t.Error("an unknown id in the list was accepted")
	}
}

// TestQuickRowsRoundTrip runs the two cheapest experiments and checks the
// rows they emit, on their way through the file the tool writes.
func TestQuickRowsRoundTrip(t *testing.T) {
	toRun, err := selectExperiments("sec68,shards")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := runExperiments(toRun, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.json")
	if err := writeFile(path, true, rows); err != nil {
		t.Fatal(err)
	}
	f := readBenchFile(t, path)
	if f.Schema != schema || !f.Quick || !reflect.DeepEqual(f.Rows, rows) {
		t.Fatalf("file does not round-trip: schema %q quick %v, %d rows written, %d read", f.Schema, f.Quick, len(rows), len(f.Rows))
	}
	perExperiment := map[string]int{}
	for _, r := range f.Rows {
		perExperiment[r.Experiment]++
		if len(r.Cell) == 0 {
			t.Errorf("%s: row without a cell", r.Experiment)
		}
		finite := 0
		for name, v := range r.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %v: metric %s is %v", r.Experiment, r.Cell, name, v)
			} else {
				finite++
			}
		}
		if finite == 0 {
			t.Errorf("%s %v: no metrics", r.Experiment, r.Cell)
		}
		if r.Experiment == "shards" {
			verified, ok := r.Metrics["verified_entries"]
			if !ok || verified == 0 || verified != r.Metrics["entries"] {
				t.Errorf("shards %v: verified_entries %v, staged %v", r.Cell, verified, r.Metrics["entries"])
			}
		}
	}
	if perExperiment["sec68"] != 5 || perExperiment["shards"] != 4 || len(perExperiment) != 2 {
		t.Errorf("rows per experiment: %v", perExperiment)
	}
}

func TestCommittedSweepsFile(t *testing.T) {
	f := readBenchFile(t, filepath.Join("..", "..", "BENCH_sweeps.json"))
	if f.Schema != schema {
		t.Errorf("schema %q, the tool writes %q", f.Schema, schema)
	}
	if f.Machine.GOMAXPROCS < 1 || f.Machine.NProc < 1 {
		t.Errorf("machine block incomplete: %+v", f.Machine)
	}
	have := map[string]bool{}
	for _, r := range f.Rows {
		have[r.Experiment] = true
	}
	for _, id := range sweepIDs {
		if !have[id] {
			t.Errorf("no rows of sweep %q", id)
		}
	}
}
