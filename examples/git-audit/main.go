// Command git-audit reproduces the paper's Git case study end to end: an
// Apache reverse proxy linked against LibSEAL fronts a Git backend; a
// synthetic commit history is replayed; the provider then mounts all three
// Git metadata attacks (rollback, teleport, reference deletion) that Git's
// own hash chain cannot reveal; LibSEAL detects each one. The audit log is
// persisted with hash chaining, enclave signatures and ROTE rollback
// protection, and finally verified out-of-band as a client would during
// dispute resolution.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"libseal"
	"libseal/internal/bench"
	"libseal/internal/httpparse"
	"libseal/internal/services/gitserver"
)

func main() {
	dir, err := os.MkdirTemp("", "git-audit-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Deploy: client -> Apache/LibSEAL reverse proxy -> Git backend, with
	// a persistent audit log protected by a ROTE counter group (n=4, f=1).
	stack, err := bench.NewGitStack(bench.StackOptions{
		Mode:        bench.ModeDisk,
		Dir:         dir,
		ROTELatency: 20 * time.Microsecond,
		// The paper's optimal check/trim interval for Git.
		Seal: []libseal.Option{libseal.WithChecks(25, 0, 0)},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	client := stack.NewClient(true)
	defer client.Close()
	push := func(lines string) {
		rsp, err := client.Do(httpparse.NewRequest("POST", "/git/repo/git-receive-pack", []byte(lines)))
		if err != nil || rsp.Status != 200 {
			log.Fatalf("push failed: %v %v", rsp, err)
		}
	}
	fetch := func() string {
		rsp, err := client.Do(httpparse.NewRequest("GET", "/git/repo/info/refs", nil))
		if err != nil || rsp.Status != 200 {
			log.Fatalf("fetch failed: %v %v", rsp, err)
		}
		return string(rsp.Body)
	}

	// Replay a synthetic commit history (like the paper's replay of
	// commons-validator) interleaved with fetches.
	gen := gitserver.NewHistoryGenerator("repo", 1)
	for i := 0; i < 120; i++ {
		push(gen.PushLines())
		if i%10 == 9 {
			fetch()
		}
	}
	fmt.Printf("replayed 120 pushes; audit log: %d pairs, %d tuples, %d trims\n",
		stack.Seal.StatsSnapshot().Pairs, stack.Seal.StatsSnapshot().Tuples,
		stack.Seal.StatsSnapshot().Trims)
	if result, _ := stack.Seal.CheckNow(); result != "ok" {
		log.Fatalf("honest replay flagged: %s", result)
	}
	fmt.Println("honest history: all invariants hold")

	heads := gen.Heads()
	var anyBranch, otherBranch string
	for b := range heads {
		if anyBranch == "" {
			anyBranch = b
		} else if otherBranch == "" {
			otherBranch = b
		}
	}

	// Attack 1: rollback — advertise an old commit for a branch.
	stack.Backend.InjectRollback("repo", anyBranch, "0000000000000000000000000000000000000000")
	fetch()
	report(stack, "rollback attack on "+anyBranch)
	stack.Backend.ClearFaults()

	// Attack 2: teleport — advertise one branch pointing at another's head.
	stack.Backend.InjectTeleport("repo", anyBranch, heads[otherBranch])
	fetch()
	report(stack, "teleport attack on "+anyBranch)
	stack.Backend.ClearFaults()

	// Attack 3: reference deletion — a branch silently disappears.
	stack.Backend.InjectRefDeletion("repo", otherBranch)
	fetch()
	report(stack, "reference-deletion attack on "+otherBranch)
	stack.Backend.ClearFaults()

	// Dispute resolution: verify the persisted log against the enclave's
	// public key and the counter group, exactly as a client would.
	opts := libseal.VerifyStreamOptions{VerifyOptions: libseal.VerifyOptions{
		Pub:       stack.Enclave.PublicKey(),
		Protector: stack.Group,
	}}
	rep, err := libseal.Verify(dir, opts)
	if err != nil {
		log.Fatalf("log verification failed: %v", err)
	}
	fmt.Printf("\npersisted log verified: %d entries, chain + signature + counter OK\n", rep.TotalEntries)

	// Tampering with the evidence is detected.
	shard := dir + "/git-shard0.lseal"
	raw, _ := os.ReadFile(shard)
	raw[len(raw)/2] ^= 0xFF
	os.WriteFile(shard, raw, 0o644)
	if _, err := libseal.Verify(dir, opts); err == nil {
		log.Fatal("tampered log verified?!")
	} else {
		fmt.Printf("tampered copy rejected: %v\n", err)
	}
}

func report(stack *bench.GitStack, attack string) {
	result, err := stack.Seal.CheckNow()
	if err != nil {
		log.Fatal(err)
	}
	if result == "ok" {
		log.Fatalf("%s went undetected", attack)
	}
	fmt.Printf("%-45s -> %s\n", attack, strings.TrimPrefix(result, "violation:"))
	stack.Seal.TrimNow() // discard the checked advertisements
}
