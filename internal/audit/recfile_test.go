package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"libseal/internal/vfs"
)

var errCrash = errors.New("simulated crash point")

// crashFS numbers every file-system operation the record files issue and
// fails exactly one of them. A write counts once per record piece a
// record-at-a-time writer would have issued — the magic, then each record's
// header and payload — so a group written in one call can crash at every
// record boundary: a failing piece persists the pieces before it and fails
// the write. In torn mode it also lands half of its own bytes and wedges the
// handle, as faultinject does for a machine that died mid-write: nothing
// further reaches the disk through that handle. In die mode the failure is the
// process's death: from the failing operation on, every operation fails
// without touching the disk, so no rollback, discard or re-sign the process
// would run next reaches it.
type crashFS struct {
	vfs.OS
	// perFile numbers operations per file rather than in one global
	// sequence, so that files written side by side have reproducible
	// crash points; directory syncs count as the file "dir".
	perFile bool
	failAt  crashPoint // n < 0: none
	torn    bool
	die     bool
	// also, when its op is set, fails too: as a call, never as a death.
	also crashPoint

	mu   sync.Mutex
	dead bool
	seen map[string]int
	ops  []crashPoint // in issue order
}

// crashPoint is one operation: the n-th on file ("" when numbered globally).
type crashPoint struct {
	file string
	n    int
	op   string
}

var noCrash = crashPoint{n: -1}

func (c *crashFS) step(op, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[string]int)
	}
	key := ""
	if c.perFile {
		key = strings.TrimSuffix(filepath.Base(name), ".tmp")
	}
	p := crashPoint{key, c.seen[key], op}
	c.seen[key]++
	c.ops = append(c.ops, p)
	hit := p.file == c.failAt.file && p.n == c.failAt.n
	c.dead = hit && c.die
	return hit || c.also.op != "" && p.file == c.also.file && p.n == c.also.n
}

func (c *crashFS) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

func (c *crashFS) open(op, name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	if c.step(op, name) {
		return nil, errCrash
	}
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c, name: name, fresh: op == "Create"}, nil
}

func (c *crashFS) Create(name string) (vfs.File, error) { return c.open("Create", name, c.OS.Create) }
func (c *crashFS) Append(name string) (vfs.File, error) { return c.open("Append", name, c.OS.Append) }

func (c *crashFS) Rename(o, n string) error {
	if c.step("Rename", o) {
		return errCrash
	}
	return c.OS.Rename(o, n)
}

func (c *crashFS) Remove(name string) error {
	if c.isDead() {
		return errCrash
	}
	return c.OS.Remove(name)
}

func (c *crashFS) ReadFile(name string) ([]byte, error) {
	if c.isDead() {
		return nil, errCrash
	}
	return c.OS.ReadFile(name)
}

func (c *crashFS) SyncDir(dir string) error {
	if c.step("SyncDir", "dir") {
		return errCrash
	}
	return c.OS.SyncDir(dir)
}

type crashFile struct {
	vfs.File
	fs     *crashFS
	name   string
	fresh  bool // nothing written yet through a Create handle: a magic comes first
	wedged bool
}

// pieces returns where the pieces of a write start: the magic on a fresh
// file, then every record's header and payload.
func pieces(p []byte, fresh bool) []int {
	var at []int
	off := 0
	if fresh && (bytes.HasPrefix(p, fileMagic) || bytes.HasPrefix(p, manifestMagic)) {
		at, off = append(at, 0), len(fileMagic)
	}
	for off < len(p) {
		at = append(at, off)
		if off+5 > len(p) {
			break
		}
		at = append(at, off+5)
		off += 5 + int(binary.BigEndian.Uint32(p[off+1:]))
	}
	return at
}

func (f *crashFile) Write(p []byte) (int, error) {
	if f.wedged || f.fs.isDead() {
		return 0, errCrash
	}
	at := pieces(p, f.fresh)
	f.fresh = false
	for i, start := range at {
		if !f.fs.step("Write", f.name) {
			continue
		}
		keep := start
		if f.fs.torn {
			end := len(p)
			if i+1 < len(at) {
				end = at[i+1]
			}
			keep, f.wedged = start+(end-start)/2, true
		}
		n, _ := f.File.Write(p[:keep])
		return n, errCrash
	}
	return f.File.Write(p)
}

func (f *crashFile) Sync() error {
	if f.wedged || f.fs.step("Sync", f.name) {
		return errCrash
	}
	return f.File.Sync()
}

func (f *crashFile) Truncate(size int64) error {
	if f.wedged || f.fs.isDead() {
		return errCrash
	}
	return f.File.Truncate(size)
}

func (f *crashFile) Close() error {
	err := f.File.Close()
	if f.fs.step("Close", f.name) {
		return errCrash
	}
	return err
}

// fileKind is one of the two persisted file formats with four record groups
// to write into it: a1 then a2 form one valid stream, b1 then b2 another
// (the image a replacement installs, and what is appended to it next).
type fileKind struct {
	name           string
	magic          []byte
	a1, a2, b1, b2 []record
	// verify checks image as the format's own verifier would and returns the
	// length of the verified prefix; tolerant ends the stream at a torn tail.
	verify func(image []byte, tolerant bool) (int64, error)
}

// splitGroups cuts a log image into its signed batches.
func splitGroups(t *testing.T, image []byte) [][]record {
	rr := recordReader{r: bytes.NewReader(image), kind: &logStream}
	if err := rr.magic(); err != nil {
		t.Fatal(err)
	}
	var groups [][]record
	var cur []record
	for {
		rec, err := rr.next()
		if err == io.EOF {
			return groups
		}
		if err != nil {
			t.Fatal(err)
		}
		cur = append(cur, rec)
		if rec.typ == recSig {
			groups, cur = append(groups, cur), nil
		}
	}
}

func fileKinds(t *testing.T) []fileKind {
	key := testKey(t)
	a := splitGroups(t, synthLog(t, key, 4, 2))
	b := splitGroups(t, synthLog(t, key, 2, 1))
	manifest := func(epoch uint64) []record {
		m := &Manifest{Epoch: epoch, Counter: epoch, Shards: make([]ShardState, 2)}
		return []record{{typ: recManifest, payload: marshalManifest(m)}}
	}
	return []fileKind{
		{
			name: "log", magic: fileMagic, a1: a[0], a2: a[1], b1: b[0], b2: b[1],
			verify: func(image []byte, tolerant bool) (int64, error) {
				res, _, err := verifyEntries(bytes.NewReader(image), VerifyOptions{Pub: &key.PublicKey, RecoverTruncated: tolerant}, imageShard)
				if err != nil {
					return 0, err
				}
				return res.CommittedBytes, nil
			},
		},
		{
			name: "manifest", magic: manifestMagic, a1: manifest(1), a2: manifest(2), b1: manifest(10), b2: manifest(11),
			verify: func(image []byte, tolerant bool) (int64, error) {
				ms, err := readManifests(image, tolerant)
				n := int64(len(manifestMagic))
				for _, m := range ms {
					n += recordSize(marshalManifest(m))
				}
				return n, err
			},
		},
	}
}

func imageOf(magic []byte, groups ...[]record) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	for _, g := range groups {
		writeRecords(&buf, g)
	}
	return buf.Bytes()
}

// TestRecordFileCrashPoints enumerates every file-system operation commit
// and replace issue, every record boundary inside a write included, and
// fails each in turn — with a plain error, and for writes also
// torn-then-wedged — for both file formats. Whatever fails, the
// file must be exactly its before- or its after-state: the image on disk
// strictly verifies, the committed size is the verified length, no
// installed image is left unsettled, the notify hook
// fired iff something became durable, and a following commit either succeeds
// and verifies or — once the file failed closed — is refused without
// touching the disk.
func TestRecordFileCrashPoints(t *testing.T) {
	for _, kind := range fileKinds(t) {
		for _, op := range []string{"commit", "replace"} {
			// A clean run lists the operations to fail.
			for _, p := range runCrashPoint(t, kind, op, &crashFS{failAt: noCrash}) {
				for _, torn := range []bool{false, true} {
					if torn && p.op != "Write" {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%d-%s/torn=%v", kind.name, op, p.n, p.op, torn), func(t *testing.T) {
						runCrashPoint(t, kind, op, &crashFS{failAt: p, torn: torn})
					})
				}
			}
		}
	}
}

// runCrashPoint runs op with fs's fault armed and returns the file-system
// operations op issued.
func runCrashPoint(t *testing.T, kind fileKind, op string, fs *crashFS) []crashPoint {
	path := filepath.Join(t.TempDir(), "file")
	failAt := fs.failAt
	fs.failAt = noCrash
	f := &recordFile{fs: fs, path: path, magic: kind.magic}
	fired := 0
	f.setNotify(func() { fired++ })
	if err := f.create(); err != nil {
		t.Fatal(err)
	}
	if err := f.commit(kind.a1...); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	before := imageOf(kind.magic, kind.a1)

	// The operation under test, with the fault armed.
	fs.seen, fs.ops, fs.failAt, fired = nil, nil, failAt, 0
	want, next := before, kind.a2
	var landed bool
	var err error
	if op == "commit" {
		err = f.commit(kind.a2...)
		landed = err == nil
		if landed {
			want, next = imageOf(kind.magic, kind.a1, kind.a2), nil
		}
	} else {
		landed, err = f.replace(kind.b1...)
		if landed {
			want, next = imageOf(kind.magic, kind.b1), kind.b2
		}
	}
	fs.failAt = noCrash
	ops := fs.ops
	if failAt.n < 0 && err != nil {
		t.Fatalf("clean %s: %v", op, err)
	}
	if f.failed != nil && err == nil {
		t.Fatalf("file failed closed (%v) without reporting an error", f.failed)
	}
	if (fired > 0) != landed {
		t.Fatalf("notify fired %d times, landed = %v", fired, landed)
	}
	if f.installed {
		t.Fatalf("an installed image was left unsettled, landed = %v", landed)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary image left behind: %v", err)
	}
	check := func(want []byte) {
		t.Helper()
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		size := f.size.Load()
		if size > int64(len(image)) || !bytes.Equal(image[:size], want) {
			t.Fatalf("committed prefix (%d of %d bytes) is neither the before- nor the after-state (%d bytes)", size, len(image), len(want))
		}
		if n, err := kind.verify(image[:size], false); err != nil || n != size {
			t.Fatalf("strict verify of the committed prefix: %d bytes, %v; committed size %d", n, err, size)
		}
		// Only a file that failed closed may carry debris past its committed
		// size, and then recovery's tolerant scan must cut exactly there.
		if f.failed == nil && int64(len(image)) != size {
			t.Fatalf("%d bytes on disk, %d committed, and the file still accepts appends", len(image), size)
		}
		if n, err := kind.verify(image, true); err != nil || n != size {
			t.Fatalf("tolerant verify: %d bytes, %v; committed size %d", n, err, size)
		}
	}
	check(want)

	// A following commit.
	err = f.commit(next...)
	if f.failed != nil {
		if !errors.Is(err, errCrash) {
			t.Fatalf("commit into a file that failed closed: %v", err)
		}
		check(want)
		return ops
	}
	if err != nil {
		t.Fatalf("commit after the fault: %v", err)
	}
	check(append(want, imageOf(nil, next)...))
	return ops
}
