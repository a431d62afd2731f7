package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"libseal/internal/httpparse"
)

// stream is the first n requests of one client, pre-fill included, as the
// bytes the program would receive.
func stream(workload string, seed int64, client, clients, n int) []byte {
	g := newGenerator(workload, seed, client, clients)
	var out []byte
	for _, r := range g.prefill() {
		out = append(out, r.raw...)
		g.acked(r)
	}
	for i := 0; i < n; i++ {
		r := g.next()
		out = append(out, r.raw...)
		g.acked(r)
	}
	return out
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range []string{"git_push", "git_check", "static_mix"} {
		for client := 0; client < 2; client++ {
			a, b := stream(w, 7, client, 2, 300), stream(w, 7, client, 2, 300)
			if !bytes.Equal(a, b) {
				t.Errorf("%s client %d: same seed gave different request streams", w, client)
			}
			if w == "static_mix" {
				continue // its stream is fixed by design: nothing is drawn
			}
			if c := stream(w, 8, client, 2, 300); bytes.Equal(a, c) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same request stream", w, client)
			}
		}
		if bytes.Equal(stream(w, 7, 0, 2, 300), stream(w, 7, 1, 2, 300)) {
			t.Errorf("%s: clients 0 and 1 sent the same stream", w)
		}
	}
}

func TestGitCheckPrefillCoversEveryBranch(t *testing.T) {
	for _, clients := range []int{1, 2, 3, 4} {
		rows := 0
		for c := 0; c < clients; c++ {
			rows += len(newGenerator("git_check", 1, c, clients).prefill())
		}
		if rows != 512 {
			t.Errorf("%d clients pre-fill %d rows, want 64 repos x 8 branches = 512", clients, rows)
		}
	}
}

func TestValidateCatchesWrongReplies(t *testing.T) {
	g := newGenerator("git_push", 1, 0, 2)
	push := g.next()
	for push.kind != kPush {
		push = g.next()
	}
	g.acked(push)
	refs := request{kind: kRefs, repo: push.repo}
	good := httpparse.NewResponse(200, []byte("ref "+push.branch+" "+push.cid+"\n"))
	if err := g.validate(refs, good); err != nil {
		t.Fatalf("honest advertisement rejected: %v", err)
	}
	stale := httpparse.NewResponse(200, []byte("ref "+push.branch+" "+strings.Repeat("0", 40)+"\n"))
	if err := g.validate(refs, stale); err == nil {
		t.Error("a rolled-back advertisement passed validation")
	}
	short := httpparse.NewResponse(200, largeBody[:len(largeBody)-1])
	if err := g.validate(request{kind: kLarge}, short); err == nil {
		t.Error("a truncated static body passed validation")
	}
	if err := g.validate(request{kind: kSmall, check: true}, httpparse.NewResponse(200, smallBody)); err == nil {
		t.Error("a check request without a check result passed validation")
	}
}

func TestVerifySetCountsRepeat(t *testing.T) {
	const entries = 2 * 16 * 300 // 300 batches a shard: one manifest by count
	counts := func(seed int64) setCounts {
		set, err := generateSet(t.TempDir(), seed, entries)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := set.verify(0)
		if err != nil {
			t.Fatal(err)
		}
		c := countsOf(rep)
		c.bytes = 0 // ECDSA signatures are randomised and their DER length varies
		return c
	}
	a, b := counts(3), counts(3)
	if a != b {
		t.Errorf("same seed: %+v then %+v", a, b)
	}
	if want := (setCounts{entries: entries, batches: entries / 16, manifests: 2}); a != want {
		t.Errorf("counts %+v, want %+v", a, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestRunsPrintTheContract runs every workload, traced and untraced, with a
// 1 s window and small set-ups, and checks the printed names against
// BENCHMARK.json.
func TestRunsPrintTheContract(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp.Workloads); got != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", got, len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for traced, list := range map[bool][]specMetric{false: sp.EndToEnd, true: sp.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("BENCHMARK.json metric %q unit %q", m.Name, m.Unit)
			}
			want[traced][m.Name] = m.Unit
		}
	}
	for _, wl := range sp.Workloads {
		if _, ok := workloads[wl.Name]; !ok || !nameRE.MatchString(wl.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the harness runs", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			o := &options{
				workload: wl.Name, seed: 5, window: time.Second, trace: traced,
				workDir: t.TempDir(), setups: 2, warmup: 200 * time.Millisecond, verifyEntries: 2 * 16 * 300,
			}
			rep, err := o.execute()
			if err != nil {
				t.Errorf("%s trace=%v: %v", wl.Name, traced, err)
				continue
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", wl.Name, traced, err)
			}
			if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
				t.Errorf("%s trace=%v: last line %s", wl.Name, traced, lines[len(lines)-1][:80])
			}
			for name, m := range last.Metrics {
				if want[traced][name] != m.Unit {
					t.Errorf("%s trace=%v: printed %s in %q, BENCHMARK.json has %q", wl.Name, traced, name, m.Unit, want[traced][name])
				}
			}
			for name := range want[traced] {
				m, ok := last.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", wl.Name, traced, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wl.Name, name, m.Value)
				}
				if m.Value == missing {
					t.Errorf("%s trace=%v: %s is missing: its seam or telemetry event did not fire", wl.Name, traced, name)
				}
			}
			if traced {
				if _, err := os.Stat(rep.SpanFile); err != nil {
					t.Errorf("%s: span file: %v", wl.Name, err)
				}
				if wl.Name == "static_mix" {
					for _, idle := range []string{"rote.increments_per_req", "vfs.syncs_per_req"} {
						if v := last.Metrics[idle].Value; v != 0 {
							t.Errorf("static_mix: %s = %v inside the window, want 0", idle, v)
						}
					}
				}
			}
			if left, _ := filepath.Glob(filepath.Join(o.workDir, "run-*")); len(left) > 0 {
				t.Errorf("%s: run directory left behind: %v", wl.Name, left)
			}
		}
	}
}

func TestDiffVerdicts(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.05}
	higher := specMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	noisy := []float64{80, 120, 95, 130, 70}
	for _, c := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{102, 103, 101, 102, 102}, vWithin},
		{lower, steady, []float64{110, 111, 109, 110, 110}, vWorse},
		{lower, steady, []float64{90, 91, 89, 90, 90}, vBetter},
		{higher, steady, []float64{85, 86, 84, 85, 85}, vWorse},
		{higher, steady, []float64{115, 116, 114, 115, 115}, vBetter},
		{lower, noisy, []float64{85, 125, 100, 135, 75}, vUnresolved},
		{lower, noisy, []float64{140, 150, 160, 135, 170}, vWorse}, // every run above every run
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestDiffExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 4; i++ {
			rep := &report{Workload: "git_push", Metrics: map[string]metric{"throughput_per_s": {rps + float64(i), "1/s"}}}
			if err := rep.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, slow := write("a.jsonl", 700), write("b.jsonl", 400)
	spec := filepath.Join("..", "BENCHMARK.json")
	var out, errOut bytes.Buffer
	if code := runDiff(spec, a, a, &out, &errOut); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runDiff(spec, a, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), vWorse) {
		t.Errorf("700 -> 400 requests/s: exit %d\n%s", code, out.String())
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread %v, want %v", got, want)
	}
}
