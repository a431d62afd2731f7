package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// spec is what the harness reads of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads an -out file: workload -> metric -> one value per run.
// Traced runs are skipped: end-to-end metrics come only from untraced runs.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			continue
		}
		if runs[rep.Workload] == nil {
			runs[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			runs[rep.Workload][name] = append(runs[rep.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// Verdicts of one cell.
const (
	vBetter     = "better"
	vWorse      = "worse"
	vWithin     = "within-bound"
	vUnresolved = "unresolved"
)

// judge compares one metric's runs. worse is the relative change of the
// median in the direction that counts as worse; a spread wider than the
// bound leaves the cell unresolved unless every run of b is on one side of
// every run of a.
func judge(m specMetric, a, b []float64) (verdict string, worse, spread float64) {
	sign := 1.0 // lower is better: growing is worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse = sign * (mb - ma) / ma
	spread = max(quartileSpread(a), quartileSpread(b))
	if spread > m.Bound {
		bAbove, aAbove := allAbove(b, a), allAbove(a, b)
		if m.Better == "higher" {
			bAbove, aAbove = aAbove, bAbove
		}
		switch {
		case bAbove:
			return vWorse, worse, spread
		case aAbove:
			return vBetter, worse, spread
		}
		return vUnresolved, worse, spread
	}
	switch {
	case worse > m.Bound:
		return vWorse, worse, spread
	case worse < -m.Bound:
		return vBetter, worse, spread
	}
	return vWithin, worse, spread
}

// allAbove reports whether every value of x exceeds every value of y.
func allAbove(x, y []float64) bool {
	return slices.Min(x) > slices.Max(y)
}

// runDiff compares two result files cell by cell and exits non-zero when any
// cell is worse.
func runDiff(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	sp, err := loadSpec(specPath)
	if err == nil {
		var a, b map[string]map[string][]float64
		if a, err = loadRuns(pathA); err == nil {
			b, err = loadRuns(pathB)
		}
		if err == nil {
			return printDiff(sp, a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "benchmark: -diff: %v\n", err)
	return 2
}

func printDiff(sp *spec, a, b map[string]map[string][]float64, w io.Writer) int {
	exit := 0
	fmt.Fprintf(w, "%-12s %-18s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse%", "spread%", "bound%", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-18s %12s %12s %8s %8s %6.1f  no runs (a: %d, b: %d)\n",
					wl.Name, m.Name, "-", "-", "-", "-", 100*m.Bound, len(va), len(vb))
				continue
			}
			verdict, worse, spread := judge(m, va, vb)
			if verdict == vWorse {
				exit = 1
			}
			fmt.Fprintf(w, "%-12s %-18s %12.4f %12.4f %+8.2f %8.2f %6.1f  %s (a: %d runs, b: %d)\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*spread, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return exit
}
