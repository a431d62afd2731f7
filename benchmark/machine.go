package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"libseal"
)

// machine is recorded in every result: a number only counts with the
// machine and the pinned configuration it was measured on.
type machine struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Clients    int               `json:"clients"`
	CostModel  libseal.CostModel `json:"cost_model"`
	BridgeMode string            `json:"bridge_mode"`
	GCBallast  int               `json:"gc_ballast_mb"`
	AuditFS    string            `json:"audit_fs"`
	// The two calibration readings say what a wait costs here: an fsync of
	// a 4 KiB append, and a 500us timer sleep (which bounds how short a
	// simulated counter round trip can be).
	RawFsyncMs   float64 `json:"raw_fsync_ms"`
	Sleep500usMs float64 `json:"sleep_500us_ms"`
}

func describeMachine(workDir string) (machine, error) {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Clients:    clientCount(),
		CostModel:  libseal.DefaultCostModel(),
		BridgeMode: "sync",
		GCBallast:  gcBallastMB,
		AuditFS:    fsType(workDir),
	}
	var err error
	m.RawFsyncMs, err = calibrateFsync(workDir)
	m.Sleep500usMs = calibrateSleep()
	return m, err
}

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibrate returns the median duration in ms of op over a fixed number of
// rounds.
func calibrate(op func() error) (float64, error) {
	const rounds = 40
	samples := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(start)))
	}
	return median(samples), nil
}

func calibrateFsync(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.cal"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	return calibrate(func() error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	})
}

func calibrateSleep() float64 {
	d, _ := calibrate(func() error { // the op cannot fail
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	return d
}

// usage is what the process has consumed so far: user+sys CPU and heap
// allocations. The harness.*_per_op metrics are the difference of two
// readings over the operations between them.
type usage struct {
	cpu                      time.Duration
	allocBytes, allocObjects uint64
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	u.allocBytes, u.allocObjects = s[0].Value.Uint64(), s[1].Value.Uint64()
	return u
}

// perOp adds to v what each of ops operations cost between before and u.
func (u usage) perOp(v map[string]float64, before usage, ops float64) {
	v["harness.cpu_us_per_op"] = float64((u.cpu - before.cpu).Microseconds()) / ops
	v["harness.alloc_bytes_per_op"] = float64(u.allocBytes-before.allocBytes) / ops
	v["harness.allocs_per_op"] = float64(u.allocObjects-before.allocObjects) / ops
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return missing
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return missing
			}
			return kb / 1024
		}
	}
	return missing
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
