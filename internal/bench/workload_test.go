package bench

import (
	"testing"
	"time"

	"libseal"
	"libseal/internal/ssm"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/owncloudssm"
)

// violations runs every invariant on the filler's database and counts the
// rows they return.
func violations(f *LogFiller) (int, error) {
	v, err := ssm.CheckInvariants(f.DB, f.Module)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, res := range v {
		total += len(res.Rows)
	}
	return total, nil
}

func TestFillersProduceCleanLogs(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*LogFiller, error)
	}{
		{"git", func() (*LogFiller, error) { return NewGitFiller(gitssm.New()) }},
		{"owncloud", func() (*LogFiller, error) { return NewOwnCloudFiller(owncloudssm.New()) }},
		{"dropbox", func() (*LogFiller, error) { return NewDropboxFiller(dropboxssm.New()) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			filler, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := filler.Fill(120); err != nil {
				t.Fatal(err)
			}
			// Honest synthetic workloads must not trip the invariants.
			n, err := violations(filler)
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("honest filler produced %d violations", n)
			}
			bytesBefore, tuplesBefore := LogFootprint(filler.DB)
			if bytesBefore == 0 || tuplesBefore == 0 {
				t.Fatal("empty footprint before trim")
			}
			if err := filler.Trim(); err != nil {
				t.Fatal(err)
			}
			bytesAfter, tuplesAfter := LogFootprint(filler.DB)
			if tuplesAfter >= tuplesBefore {
				t.Fatalf("trim did not shrink the log: %d -> %d tuples", tuplesBefore, tuplesAfter)
			}
			if bytesAfter >= bytesBefore {
				t.Fatalf("trim did not shrink bytes: %d -> %d", bytesBefore, bytesAfter)
			}
			// Invariants still clean after trimming and more traffic.
			if err := filler.Fill(40); err != nil {
				t.Fatal(err)
			}
			if v, err := violations(filler); err != nil || v != 0 {
				t.Fatalf("post-trim traffic flagged: %d, %v", v, err)
			}
		})
	}
}

// TestFillerRequestsThroughStacks sends each filler's request stream to its
// service's disk-mode deployment with a check+trim cycle every 10 pairs, as
// Fig. 6 does: the real service accepts every request, core's cycles find no
// violation and trim, and the log strictly re-verifies afterwards.
func TestFillerRequestsThroughStacks(t *testing.T) {
	opts := StackOptions{Mode: ModeDisk, Seal: []libseal.Option{libseal.WithChecks(10, 0, 0)}}
	cases := []struct {
		name   string
		filler func() (*LogFiller, error)
		deploy func() (*Stack, error)
	}{
		{"git", func() (*LogFiller, error) { return NewGitFiller(gitssm.New()) }, func() (*Stack, error) {
			st, err := NewGitStack(opts, 0)
			if err != nil {
				return nil, err
			}
			return st.Stack, nil
		}},
		{"owncloud", func() (*LogFiller, error) { return NewOwnCloudFiller(owncloudssm.New()) }, func() (*Stack, error) {
			st, err := NewOwnCloudStack(opts, 0)
			if err != nil {
				return nil, err
			}
			return st.Stack, nil
		}},
		{"dropbox", func() (*LogFiller, error) { return NewDropboxFiller(dropboxssm.New()) }, func() (*Stack, error) {
			st, err := NewDropboxStack(opts, 0)
			if err != nil {
				return nil, err
			}
			return st.Stack, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			filler, err := c.filler()
			if err != nil {
				t.Fatal(err)
			}
			st, err := c.deploy()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			client := st.NewClient(true)
			defer client.Close()
			for i := 0; i < 40; i++ {
				rsp, err := client.Do(filler.Request())
				if err != nil || rsp.Status != 200 {
					t.Fatalf("request %d: %v %v", i, rsp, err)
				}
			}
			stats := st.Seal.StatsSnapshot()
			if stats.Checks < 3 || stats.Trims == 0 || stats.Violations != 0 {
				t.Fatalf("checks %d, trims %d, violations %d after 40 pairs", stats.Checks, stats.Trims, stats.Violations)
			}
			if _, err := st.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSealModeStrings(t *testing.T) {
	want := map[SealMode]string{
		ModeNative:  "native",
		ModeProcess: "LibSEAL-process",
		ModeMem:     "LibSEAL-mem",
		ModeDisk:    "LibSEAL-disk",
	}
	for mode, s := range want {
		if mode.String() != s {
			t.Errorf("%d.String() = %q, want %q", mode, mode.String(), s)
		}
	}
	if SealMode(99).String() != "?" {
		t.Error("unknown mode string")
	}
}

func TestDropboxWANConstant(t *testing.T) {
	if 2*DropboxWANLatency != 76*time.Millisecond {
		t.Fatalf("WAN RTT = %v, want 76ms", 2*DropboxWANLatency)
	}
}
