// Command libseal-bench regenerates the tables and figures of the LibSEAL
// paper's evaluation (§6) and prints them in the paper's format: one row or
// series per configuration. Absolute numbers depend on the host; the
// comparison targets are the relative shapes (see EXPERIMENTS.md).
//
// Usage:
//
//	libseal-bench -experiment fig5a
//	libseal-bench -experiment all -quick
//	libseal-bench -list
//	libseal-bench -json BENCH_pr4.json
package main

import (
	"flag"
	"fmt"
	"os"
)

// experiment is one reproducible table or figure.
type experiment struct {
	id    string
	title string
	run   func(q bool) error
}

var experiments = []experiment{
	{"table1", "Table 1: lines of code and enclave interface", runTable1},
	{"fig5a", "Figure 5a: Git throughput and latency", runFig5a},
	{"fig5b", "Figure 5b: ownCloud throughput and latency", runFig5b},
	{"fig5c", "Figure 5c: Dropbox latency", runFig5c},
	{"fig6", "Figure 6: normalized invariant checking and trimming time", runFig6},
	{"fig7a", "Figure 7a: Apache throughput and overhead vs content size", runFig7a},
	{"fig7b", "Figure 7b: Squid throughput versus latency", runFig7b},
	{"fig7c", "Figure 7c: multi-core scalability", runFig7c},
	{"table2", "Table 2: throughput with asynchronous enclave calls", runTable2},
	{"table3", "Table 3: varying the number of SGX threads", runTable3},
	{"table4", "Table 4: varying the number of lthread tasks", runTable4},
	{"sec42", "Section 4.2: transition-reduction optimisations", runSec42},
	{"sec65", "Section 6.5: log size per retained unit", runSec65},
	{"sec68", "Section 6.8: enclave transition cost vs threads", runSec68},
	{"detect", "Section 6.2: attack detection across all services", runDetect},
}

func main() {
	id := flag.String("experiment", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	jsonOut := flag.String("json", "", "run the group-commit sweep (batching x bridge mode x clients) and write machine-readable results to this file (make bench-json writes BENCH_pr4.json)")
	shardsOut := flag.String("shards-json", "", "run the audit-log shard sweep and write machine-readable results to this file")
	checkOut := flag.String("check-json", "", "run the snapshot-check/index sweep and write machine-readable results to this file")
	mirrorOut := flag.String("mirror-json", "", "run the live-mirror overhead and rollback-detection sweep and write machine-readable results to this file")
	flag.Parse()

	if *jsonOut != "" {
		if err := runBenchJSON(*jsonOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "libseal-bench: json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shardsOut != "" {
		if err := runShardBench(*shardsOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "libseal-bench: shards-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *checkOut != "" {
		if err := runCheckBench(*checkOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "libseal-bench: check-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *mirrorOut != "" {
		if err := runMirrorBench(*mirrorOut, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "libseal-bench: mirror-json: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *id == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.id, e.title)
		}
		if *id == "" {
			os.Exit(2)
		}
		return
	}
	var toRun []experiment
	if *id == "all" {
		toRun = experiments
	} else {
		for _, e := range experiments {
			if e.id == *id {
				toRun = []experiment{e}
			}
		}
		if len(toRun) == 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
			os.Exit(2)
		}
	}
	for _, e := range toRun {
		fmt.Printf("=== %s ===\n", e.title)
		if err := e.run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "libseal-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
