// Package vfs abstracts the small slice of the filesystem that LibSEAL's
// persistence paths use (audit-log files and platform state). The
// indirection exists so the fault-injection layer can interpose torn
// writes, corruption and ENOSPC between the enclave's ocalls and the disk,
// which is how the chaos tests exercise crash recovery deterministically.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// File is a writable file handle. Truncate lets the audit log roll a
// partially-written append back to the last committed prefix.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem surface used by LibSEAL persistence.
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Append opens the named file for appending.
	Append(name string) (File, error)
	// ReadFile returns the file's contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes the named file.
	Remove(name string) error
	// SyncDir makes the directory's entries durable: a rename into dir is
	// only crash-safe once this returns.
	SyncDir(dir string) error
}

// OS is the passthrough implementation backed by the real filesystem.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Append implements FS.
func (OS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// SyncDir implements FS. A filesystem that cannot fsync a directory says
// EINVAL; there is nothing more to be done on it, so that is not an error.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// Default returns fs, or the real filesystem when fs is nil.
func Default(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves either the old file or the new one, never a mixture: the bytes go
// to path+".tmp", are fsynced, renamed over path, and the directory is
// synced so the rename itself survives a power loss. perm is applied to the
// temporary file best-effort, before any data is written to it.
func WriteFileAtomic(fs FS, path string, data []byte, perm os.FileMode) error {
	fs = Default(fs)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	os.Chmod(tmp, perm)
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}
