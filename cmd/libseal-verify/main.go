// Command libseal-verify validates a persisted LibSEAL audit log out of
// band, the way a client would during dispute resolution: it recomputes the
// hash chain, verifies the enclave's ECDSA signature over the chain head and
// counter, and prints the verified entries. A failure means the provider
// tampered with, truncated or rolled back the log — or that the log was not
// produced by the expected enclave.
//
// -log is the audit directory. Every persisted log is a set — its shard
// files (<name>-shard<k>.lseal, one or more) and the signed epoch-manifest
// sidecar (<name>.manifest) — verified shard-by-shard in parallel, with the
// manifests replayed against every shard's verified commit points: a single
// shard rolled back to an earlier signed prefix fails verification even
// though its own chain still checks out, and shard files whose manifest is
// missing fail outright.
//
// Logs are read in format 3 (magic LIBSEALLOG3): the chain takes one step per
// batch, over its entry records as stored. A file of format 1 or 2 is refused
// by name ("log format 2 is not supported; this build reads format 3"), and a
// checkpoint sidecar an earlier build wrote is stale: that shard is scanned
// cold.
//
// Verification runs the parallel pipeline: signature records cut each log
// into independently checkable runs of batches fanned out to -workers
// goroutines, entries are checked where they lie in the file's blocks —
// walked and hashed, not decoded — and progress is checkpointed to a sidecar
// beside each shard file (<shard file>.ckpt) so an interrupted run resumes
// with -resume instead of rescanning from byte 0.
//
// -dump is what decodes: with it, entries are built and print as their
// batches verify — before the whole-log verdict (counter freshness above
// all) is known. Dumped output is provisional until the final "OK" line; a
// run that ends in VERIFICATION FAILED exits non-zero and everything it
// printed must be discarded.
//
// A failure says where it is — the record whose own check failed, the header
// where the stream stops framing, where unsigned entries start:
//
//	libseal-verify: VERIFICATION FAILED: shard 1, byte 10482113, signature record 6012: chain hash mismatch
//	libseal-verify: VERIFICATION FAILED: shard 0, byte 600, signature record 1, entry 3: truncated record
//
// Usage:
//
//	libseal-verify -log auditdir -pubkey enclave.pub [-dump]
//	libseal-verify -log auditdir -workers 8 -progress
//	libseal-verify -log auditdir -resume                # continue after a crash
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"libseal"
	"libseal/internal/pki"
)

func main() {
	logDir := flag.String("log", "", "audit directory holding the log set (shard files and manifest sidecar)")
	pubPath := flag.String("pubkey", "", "path to the enclave's PEM public key (optional: skips signature check)")
	dump := flag.Bool("dump", false, "decode and print every verified entry")
	workers := flag.Int("workers", 0, "parallel verification workers (0 = all cores)")
	resume := flag.Bool("resume", false, "resume from checkpoint sidecars where they match the logs")
	progress := flag.Bool("progress", false, "print progress as segments verify")
	noCkpt := flag.Bool("no-checkpoint", false, "do not write checkpoints")
	flag.Parse()
	if *logDir == "" {
		fmt.Fprintln(os.Stderr, "libseal-verify: -log is required")
		flag.Usage()
		os.Exit(2)
	}

	// ResumeAuto loads each shard's own sidecar and silently cold-scans when
	// one is missing or stale.
	opts := libseal.VerifyStreamOptions{Workers: *workers, ResumeAuto: *resume}
	if *pubPath != "" {
		pemData, err := os.ReadFile(*pubPath)
		if err != nil {
			fatal("read public key: %v", err)
		}
		pub, err := pki.DecodePublicKeyPEM(pemData)
		if err != nil {
			fatal("parse public key: %v", err)
		}
		opts.Pub = pub
	}
	if !*noCkpt {
		opts.Checkpoint = &libseal.VerifyCheckpointConfig{
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "libseal-verify: checkpoint write: %v\n", err)
			},
		}
	}

	start := time.Now()
	var segs, entries int
	opts.OnSegment = func(s libseal.VerifySegment) error {
		segs++
		entries += s.NumEntries
		if *dump {
			for _, e := range s.Entries() {
				fmt.Printf("#%-6d %-16s", e.Seq, e.Table)
				for _, v := range e.Values {
					fmt.Printf(" %s", v.String())
				}
				fmt.Println()
			}
		}
		if *progress && segs%256 == 0 {
			fmt.Fprintf(os.Stderr, "  ... %d segments, %d entries verified (%.1fs)\n",
				segs, entries, time.Since(start).Seconds())
		}
		return nil
	}

	res, err := libseal.Verify(*logDir, opts)
	var located *libseal.VerifyError
	if errors.As(err, &located) {
		at := fmt.Sprintf("shard %d, byte %d, signature record %d", located.Shard, located.Offset, located.Batch)
		if located.Record >= 0 {
			at += fmt.Sprintf(", entry %d", located.Record)
		}
		fatal("VERIFICATION FAILED: %s: %s", at, located.Reason)
	}
	if err != nil {
		fatal("VERIFICATION FAILED: %v", err)
	}

	fmt.Printf("OK: %d entries, hash chain intact", res.TotalEntries)
	if opts.Pub != nil {
		fmt.Printf(", enclave signature valid")
	}
	fmt.Printf(" (%d shards, %d epoch manifests, last epoch %d)",
		len(res.Shards), res.Manifests, res.Epoch)
	if res.Resumed {
		reverified := 0
		for _, sh := range res.Shards {
			reverified += sh.Batches
		}
		fmt.Printf(" (resumed: %d of %d batches re-verified)", reverified, res.TotalBatches)
	}
	fmt.Println()

	if !*dump {
		tables := make([]string, 0, len(res.Tables))
		for t := range res.Tables {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for _, t := range tables {
			fmt.Printf("  %-20s %d tuples\n", t, res.Tables[t])
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "libseal-verify: "+format+"\n", args...)
	os.Exit(1)
}
