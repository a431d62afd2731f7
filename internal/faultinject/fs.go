package faultinject

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"syscall"

	"libseal/internal/simtime"
	"libseal/internal/vfs"
)

// stall is an injected slow disk's modelled time.
var stall = simtime.NewLayer("faultinject.fs")

// ErrTornWrite is returned by a write the injector tore: a prefix of the
// payload reached the disk, then the simulated machine died.
var ErrTornWrite = errors.New("faultinject: torn write (simulated crash)")

// FS wraps base (nil for the real filesystem) with the injector's
// "fs:<file>" rules. File write operations count per base filename.
func (in *Injector) FS(base vfs.FS) vfs.FS {
	return &faultyFS{in: in, base: vfs.Default(base)}
}

type faultyFS struct {
	in   *Injector
	base vfs.FS
}

func (f *faultyFS) wrap(file vfs.File, name string) vfs.File {
	return &faultyFile{in: f.in, target: "fs:" + filepath.Base(name), f: file}
}

func (f *faultyFS) Create(name string) (vfs.File, error) {
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name), nil
}

func (f *faultyFS) Append(name string) (vfs.File, error) {
	file, err := f.base.Append(name)
	if err != nil {
		return nil, err
	}
	return f.wrap(file, name), nil
}

func (f *faultyFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }
func (f *faultyFS) Rename(o, n string) error             { return f.base.Rename(o, n) }
func (f *faultyFS) Remove(name string) error             { return f.base.Remove(name) }
func (f *faultyFS) SyncDir(dir string) error             { return f.base.SyncDir(dir) }

// faultyFile interposes on writes. After a torn write the handle is wedged:
// the simulated process died mid-write, so nothing further reaches disk.
type faultyFile struct {
	in     *Injector
	target string
	f      vfs.File

	mu     sync.Mutex
	wedged bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wedged {
		return 0, ErrTornWrite
	}
	for _, r := range f.in.step(f.target) {
		switch r.Op {
		case OpTornWrite:
			n := r.at(len(p), len(p)/2)
			if n > 0 {
				f.f.Write(p[:n])
			}
			f.f.Sync()
			f.wedged = true
			return n, ErrTornWrite
		case OpENOSPC:
			n := r.at(len(p), 0)
			if n > 0 {
				n, _ = f.f.Write(p[:n])
			}
			return n, fmt.Errorf("faultinject: %w", syscall.ENOSPC)
		case OpCorrupt:
			q := append([]byte(nil), p...)
			if len(q) > 0 {
				q[r.at(len(q), len(q)/2)] ^= 0xff
			}
			return f.f.Write(q)
		case OpStall:
			stall.Sleep(r.Delay)
		}
	}
	return f.f.Write(p)
}

func (f *faultyFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wedged {
		return ErrTornWrite
	}
	return f.f.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wedged {
		return ErrTornWrite
	}
	return f.f.Truncate(size)
}

func (f *faultyFile) Close() error { return f.f.Close() }
