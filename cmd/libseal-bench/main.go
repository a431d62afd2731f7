// Command libseal-bench runs the experiments of this reproduction: every
// table and figure of the LibSEAL paper's evaluation (§6) and the sweeps of
// the layers added since (group commit, sharding, snapshot checks, the live
// mirror). An experiment is a list of cells; each cell it measures becomes
// one row — the experiment id, the cell's axes and the named metrics — which
// is printed as an aligned table and, with -out, written to one JSON file
// together with the machine it was measured on. Absolute numbers depend on
// the host; the comparison targets are the relative shapes (EXPERIMENTS.md).
//
// Usage:
//
//	libseal-bench -list
//	libseal-bench -experiment fig5a
//	libseal-bench -experiment all -quick
//	libseal-bench -experiment groupcommit,shards,checks,mirror -out BENCH_sweeps.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"unicode/utf8"

	"libseal/internal/enclave"
)

// row is one measured cell. Cell holds the axes that select it, in sweep
// order, as key/value pairs; Metrics what was measured there.
type row struct {
	Experiment string             `json:"experiment"`
	Cell       [][2]string        `json:"cell"`
	Metrics    map[string]float64 `json:"metrics"`
}

// axes builds a cell from alternating keys and values.
func axes(kv ...any) [][2]string {
	cell := make([][2]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		cell = append(cell, [2]string{fmt.Sprint(kv[i]), fmt.Sprint(kv[i+1])})
	}
	return cell
}

// machine is recorded with every file: a number only counts with the machine
// it was measured on. CostModel is the calibrated SGX model every deployment
// behind TLS runs under (the audit-only sweeps charge nothing).
type machine struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CostModel  enclave.CostModel `json:"cost_model"`
}

// benchFile is what -out writes.
type benchFile struct {
	Schema  string  `json:"schema"`
	Machine machine `json:"machine"`
	Quick   bool    `json:"quick"`
	Rows    []row   `json:"rows"`
}

const schema = "libseal-bench/1"

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CostModel:  cost(),
	}
}

// experiment is one reproducible table, figure or sweep. run measures its
// cells in order, handing each to emit; cols are the metrics the console
// table shows, in column order (a file holds all of them).
type experiment struct {
	id    string
	title string
	cols  []string
	run   func(quick bool, emit func(row)) error
}

// selectExperiments resolves a comma-separated id list, or "all".
func selectExperiments(ids string) ([]experiment, error) {
	if ids == "all" {
		return experiments, nil
	}
	var out []experiment
	for _, id := range strings.Split(ids, ",") {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		out = append(out, experiments[i])
	}
	return out, nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "available experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-12s %s\n", e.id, e.title)
	}
}

// runExperiments runs each experiment, prints its rows to w and returns
// them. Rows measured before a failure are still printed.
func runExperiments(toRun []experiment, quick bool, w io.Writer) ([]row, error) {
	var all []row
	for _, e := range toRun {
		fmt.Fprintf(w, "=== %s ===\n", e.title)
		var rows []row
		err := e.run(quick, func(r row) {
			r.Experiment = e.id
			rows = append(rows, r)
		})
		printRows(w, rows, e.cols)
		if err != nil {
			return all, fmt.Errorf("%s: %w", e.id, err)
		}
		all = append(all, rows...)
	}
	return all, nil
}

// printRows renders rows as aligned tables: one column per axis, then the
// metrics named in cols, "-" where a row lacks one. A run of rows with the
// same axes forms one table.
func printRows(w io.Writer, rows []row, cols []string) {
	keys := func(r row) []string {
		var k []string
		for _, kv := range r.Cell {
			k = append(k, kv[0])
		}
		return k
	}
	for len(rows) > 0 {
		head := keys(rows[0])
		n := 1
		for n < len(rows) && slices.Equal(keys(rows[n]), head) {
			n++
		}
		axesN := len(head)
		table := make([][]string, n+1)
		for i, r := range rows[:n] {
			for _, kv := range r.Cell {
				table[i+1] = append(table[i+1], kv[1])
			}
		}
		for _, name := range cols {
			format, ok := metricFormat(rows[:n], name)
			if !ok {
				continue
			}
			head = append(head, name)
			for i, r := range rows[:n] {
				s := "-"
				if v, ok := r.Metrics[name]; ok {
					s = fmt.Sprintf(format, v)
				}
				table[i+1] = append(table[i+1], s)
			}
		}
		table[0] = head
		width := make([]int, len(head))
		for _, line := range table {
			for i, s := range line {
				width[i] = max(width[i], utf8.RuneCountInString(s))
			}
		}
		for _, line := range table {
			for i, s := range line {
				if i < axesN {
					fmt.Fprintf(w, "%-*s  ", width[i], s) // axes left-aligned
				} else {
					fmt.Fprintf(w, "%*s  ", width[i], s) // metrics right-aligned
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
		rows = rows[n:]
	}
}

// metricFormat picks one format for a column — counts print as integers,
// measurements with enough decimals to compare — and reports whether any row
// carries the metric at all.
func metricFormat(rows []row, name string) (string, bool) {
	found, whole, small := false, true, false // whole: all integral; small: a fractional value below 100
	for _, r := range rows {
		v, ok := r.Metrics[name]
		found = found || ok
		if v != math.Trunc(v) {
			whole = false
			small = small || math.Abs(v) < 100
		}
	}
	switch {
	case whole:
		return "%.0f", found
	case small:
		return "%.3f", found
	default:
		return "%.1f", found
	}
}

// writeFile writes the rows and the machine they were measured on.
func writeFile(path string, quick bool, rows []row) error {
	out, err := json.MarshalIndent(benchFile{Schema: schema, Machine: thisMachine(), Quick: quick, Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	ids := flag.String("experiment", "", "experiment ids, comma-separated, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "smaller sweeps and request budgets for a fast pass")
	out := flag.String("out", "", "also write the rows, with the machine they were measured on, to this JSON file")
	flag.Parse()

	if *list || *ids == "" {
		printList(os.Stdout)
		if !*list {
			os.Exit(2)
		}
		return
	}
	toRun, err := selectExperiments(*ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m := thisMachine()
	fmt.Printf("machine: nproc=%d gomaxprocs=%d %s\n\n", m.NProc, m.GOMAXPROCS, m.GoVersion)
	rows, err := runExperiments(toRun, *quick, os.Stdout)
	if err == nil && *out != "" {
		if err = writeFile(*out, *quick, rows); err == nil {
			fmt.Printf("wrote %s (%d rows)\n", *out, len(rows))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "libseal-bench: %v\n", err)
		os.Exit(1)
	}
}
