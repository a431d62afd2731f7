package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync/atomic"

	"libseal/internal/vfs"
)

// appendRecords lays recs out after buf (their off is ignored), each as
// type[1] ‖ length[4, big-endian] ‖ payload.
func appendRecords(buf []byte, recs []record) []byte {
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint32(append(buf, r.typ), uint32(len(r.payload)))
		buf = append(buf, r.payload...)
	}
	return buf
}

// writeRecords writes recs with one Write and returns their footprint.
func writeRecords(w io.Writer, recs []record) (int64, error) {
	buf := appendRecords(nil, recs)
	_, err := w.Write(buf)
	return int64(len(buf)), err
}

// recordFile is one durable record file — a shard's log or the manifest
// sidecar: a magic header followed by records, appended in fsynced groups
// (commit) and replaced atomically as a whole (replace, or a trim's stage,
// install and settle), each group and each image in one Write. It is the only
// code that creates, appends to, truncates or renames a persisted audit
// file; DESIGN.md "Persisted files" gives the syscall sequence of each
// operation and what every failure leaves on disk.
//
// The mutating operations do file I/O and therefore run inside ocalls; the
// owner serialises them (a Log by its commit lane or a quiesced l.mu, the
// manifest lane by mmu). Committed size and the notify hook are read
// concurrently by the replication feed and are atomic.
type recordFile struct {
	fs    vfs.FS
	path  string
	magic []byte

	// h is the append handle, always obtained from FS.Append so every write
	// lands at the end of the file whatever a rollback truncated. Nil before
	// create/open and once the file failed closed.
	h vfs.File
	// failed, once set, is returned by every later commit until a restart:
	// the file's tail is in a state the committed size no longer describes (a
	// rollback that did not take, a replacement that landed but could not be
	// reopened, a compaction's land that failed), and acknowledging appends
	// into it would lose them.
	failed error

	// size is the committed length: every byte below it belongs to a record
	// group that was fsynced; bytes past it are a partial group that commit
	// is about to cut away. Feed readers never ship bytes past it.
	size atomic.Int64
	// installed is set from a replacement's rename until settle reopens the
	// file (ShardedLog.land settles such a file when it fails).
	installed bool
	// notify runs after every durable change (commit fsynced, replacement
	// landed), on the committing goroutine; it must not block.
	notify atomic.Pointer[func()]
	buf    []byte // one Write's bytes (a group, or a staged image), reused
}

func (f *recordFile) setNotify(fn func()) { f.notify.Store(&fn) }

func (f *recordFile) fire() {
	if fn := f.notify.Load(); fn != nil && *fn != nil {
		(*fn)()
	}
}

// fail makes the file fail closed, keeping the first cause.
func (f *recordFile) fail(err error) {
	if f.failed == nil {
		f.failed = fmt.Errorf("audit: %s failed closed: %w", filepath.Base(f.path), err)
	}
	f.close()
}

// create truncates (or creates) the file to just its magic.
func (f *recordFile) create() error {
	h, err := f.fs.Create(f.path)
	if err != nil {
		return err
	}
	_, err = h.Write(f.magic)
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if f.h, err = f.fs.Append(f.path); err != nil {
		return err
	}
	f.size.Store(int64(len(f.magic)))
	return nil
}

// open adopts an existing file whose first committed bytes the caller has
// verified, cutting off whatever crash debris follows them (the file holds
// onDisk bytes) so that appends extend a verified image.
func (f *recordFile) open(committed, onDisk int64) error {
	h, err := f.fs.Append(f.path)
	if err != nil {
		return err
	}
	f.h = h
	f.size.Store(committed)
	if onDisk > committed {
		if err := f.rollback(); err != nil {
			f.close()
			return err
		}
	}
	return nil
}

// rollback cuts the file back to its committed size.
func (f *recordFile) rollback() error { return f.h.Truncate(f.size.Load()) }

// commit appends recs as one group — one Write — under one fsync. Only then
// does the committed size advance and the notify hook fire. On any error the
// partial group is cut away again; if even that fails (a dead handle: the
// simulated machine crashed mid-write) the file fails closed, because the
// next append would otherwise land behind the debris.
func (f *recordFile) commit(recs ...record) error {
	if f.failed != nil {
		return f.failed
	}
	f.buf = appendRecords(f.buf[:0], recs)
	_, err := f.h.Write(f.buf)
	if err == nil {
		err = f.h.Sync() // one flush covers the whole group (§5.1)
	}
	if err != nil {
		if rerr := f.rollback(); rerr != nil {
			f.fail(rerr)
		}
		return err
	}
	mFsyncs.Inc()
	f.size.Add(int64(len(f.buf)))
	f.fire()
	return nil
}

// replace atomically swaps the file for magic + recs: stage, install, and
// settle once the rename is durable (a compaction runs the steps itself:
// ShardedLog.land). The rename is the commit point: before it the old image is
// intact and authoritative (landed is false) and the staged image goes; once
// it succeeded the file IS the new image — landed is true, its committed size
// follows it — even when making the rename durable or reopening the
// file for append then fails, in which case the error is returned and the file
// fails closed. The owner must move its in-memory state whenever landed is set.
func (f *recordFile) replace(recs ...record) (landed bool, err error) {
	n, err := f.stage(recs)
	if err == nil {
		if err = f.install(n); err == nil {
			return true, f.settle(f.syncDir())
		}
	}
	f.resolveStaged(false)
	return false, err
}

// stage writes magic + recs to the temporary image in one Write, fsyncs and
// closes it, and returns its length; on failure the caller removes it.
func (f *recordFile) stage(recs []record) (int64, error) {
	h, err := f.fs.Create(stagedPath(f.path))
	if err != nil {
		return 0, err
	}
	f.buf = appendRecords(append(f.buf[:0], f.magic...), recs)
	if _, err = h.Write(f.buf); err == nil {
		err = h.Sync()
	}
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	mFsyncs.Inc()
	return int64(len(f.buf)), nil
}

// install renames the staged image of length n over the file: if that fails,
// all is as it was, the staged image still beside the file for the caller to
// remove or keep; else the file is the new image, installed until settle.
func (f *recordFile) install(n int64) error {
	if err := f.fs.Rename(stagedPath(f.path), f.path); err != nil {
		return err
	}
	f.close() // the old image's inode
	f.size.Store(n)
	f.installed = true
	return nil
}

// settle finishes an installed image once its directory sync returned
// syncErr: it reopens the file for append (failing it closed if either step
// failed) and fires the notify hook.
func (f *recordFile) settle(syncErr error) error {
	err := syncErr
	if err == nil {
		f.h, err = f.fs.Append(f.path)
	}
	if err != nil {
		f.fail(err)
	}
	f.installed = false
	f.fire()
	return err
}

// syncDir makes renames into the file's directory durable.
func (f *recordFile) syncDir() error { return f.fs.SyncDir(filepath.Dir(f.path)) }

// resolveStaged renames the staged image over the file (install: recovery
// completing a land a crash interrupted) or removes whatever image is staged
// beside it.
func (f *recordFile) resolveStaged(install bool) error {
	if install {
		return f.fs.Rename(stagedPath(f.path), f.path)
	}
	if err := f.fs.Remove(stagedPath(f.path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// close releases the append handle.
func (f *recordFile) close() error {
	if f.h == nil {
		return nil
	}
	err := f.h.Close()
	f.h = nil
	return err
}

// FileView is a read-only view of one persisted file of a log set, for
// readers outside the enclave (the replication feed) that stream its raw
// bytes: read CommittedSize, then at most that many bytes from Path, under
// the set's generation (ShardedLog.Generation), which tells whether a
// compaction replaced the files meanwhile.
type FileView struct{ f *recordFile }

// Path is the file's location.
func (v FileView) Path() string { return v.f.path }

// CommittedSize is the file's durable length: every byte below it belongs to
// a committed record, bytes beyond it may be a partial group that a failed
// commit will cut away.
func (v FileView) CommittedSize() int64 { return v.f.size.Load() }
