package bench

import (
	"testing"
	"time"

	"libseal/internal/audit"
	"libseal/internal/rote"
	"libseal/internal/ssm/dropboxssm"
	"libseal/internal/ssm/gitssm"
	"libseal/internal/ssm/owncloudssm"
	"libseal/internal/testutil"
)

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
			violations, err := filler.Check()
			if err != nil {
				t.Fatal(err)
			}
			if violations != 0 {
				t.Fatalf("honest filler produced %d violations", violations)
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
			if v, err := filler.Check(); err != nil || v != 0 {
				t.Fatalf("post-trim traffic flagged: %d, %v", v, err)
			}
		})
	}
}

func TestFillerAttachPersists(t *testing.T) {
	filler, err := NewGitFiller(gitssm.New())
	if err != nil {
		t.Fatal(err)
	}
	encl, bridge, err := testutil.NewBridge(testutil.BridgeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	group, err := rote.NewGroup(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := filler.Attach(bridge, audit.Config{Mode: audit.ModeDisk, Dir: dir, Protector: group}); err != nil {
		t.Fatal(err)
	}
	if err := filler.Fill(30); err != nil {
		t.Fatal(err)
	}
	d, err := filler.CheckTrim()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("zero check+trim duration")
	}
	// The persisted log verifies and reflects the trimmed state.
	entries, err := verifyLogFile(dir+"/git-shard0.lseal", audit.VerifyOptions{
		Pub: encl.PublicKey(), Protector: group, Name: "git-shard0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no persisted entries after attach")
	}
	_, tuples := LogFootprint(filler.DB)
	if len(entries) != tuples {
		t.Fatalf("persisted %d entries but DB holds %d tuples", len(entries), tuples)
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
