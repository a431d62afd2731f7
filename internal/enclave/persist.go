package enclave

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"

	"libseal/internal/vfs"
)

// Platform persistence. A real SGX machine's fuse key and provisioned
// attestation key live in hardware and survive reboots; the simulation
// equivalent is serialising the platform's secrets to a state file. Loading
// the file is the analogue of launching enclaves on the same physical
// machine, which is what makes sealed data and monotonic counters
// recoverable across process restarts. The state file is as sensitive as
// the hardware it stands in for; it exists so that the CLI tools can
// demonstrate restart recovery.
//
// The v2 format appends a SHA-256 checksum so a torn or corrupted state
// file is detected at load instead of yielding silently wrong counters, and
// saves go through write-temp + fsync + rename so a crash mid-save leaves
// the previous intact state in place. v1 files (no checksum) still load.

// ErrBadPlatformState reports a malformed platform state blob.
var ErrBadPlatformState = errors.New("enclave: malformed platform state")

var (
	platformStateMagic   = []byte("LSEALPLATFORM2\n")
	platformStateMagicV1 = []byte("LSEALPLATFORM1\n")
)

// Marshal serialises the platform's secrets and counter state, with a
// trailing SHA-256 checksum over everything before it.
func (p *Platform) Marshal() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf bytes.Buffer
	buf.Write(platformStateMagic)
	buf.Write(p.fuseKey[:])
	keyDER, err := x509.MarshalECPrivateKey(p.quotingKey)
	if err != nil {
		return nil, fmt.Errorf("enclave: marshal quoting key: %w", err)
	}
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(keyDER)))
	buf.Write(l[:])
	buf.Write(keyDER)
	binary.BigEndian.PutUint32(l[:], uint32(len(p.counters)))
	buf.Write(l[:])
	var u64 [8]byte
	for id, ctr := range p.counters {
		binary.BigEndian.PutUint64(u64[:], id)
		buf.Write(u64[:])
		buf.Write(ctr.owner[:])
		binary.BigEndian.PutUint64(u64[:], ctr.value)
		buf.Write(u64[:])
	}
	binary.BigEndian.PutUint64(u64[:], p.nextCounter)
	buf.Write(u64[:])
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// UnmarshalPlatform restores a platform from Marshal output. v2 blobs are
// checksum-verified; v1 blobs (written before the checksum existed) are
// accepted as-is.
func UnmarshalPlatform(data []byte) (*Platform, error) {
	if len(data) < len(platformStateMagic) {
		return nil, ErrBadPlatformState
	}
	body := data[len(platformStateMagic):]
	switch {
	case bytes.HasPrefix(data, platformStateMagic):
		if len(body) < sha256.Size {
			return nil, ErrBadPlatformState
		}
		sum := sha256.Sum256(data[:len(data)-sha256.Size])
		if !bytes.Equal(sum[:], data[len(data)-sha256.Size:]) {
			return nil, fmt.Errorf("%w: checksum mismatch (torn or corrupted state file)", ErrBadPlatformState)
		}
		body = body[:len(body)-sha256.Size]
	case bytes.HasPrefix(data, platformStateMagicV1):
	default:
		return nil, ErrBadPlatformState
	}
	return unmarshalPlatformBody(bytes.NewReader(body))
}

func unmarshalPlatformBody(r *bytes.Reader) (*Platform, error) {
	p := &Platform{counters: make(map[uint64]*hardwareCounter)}
	if _, err := r.Read(p.fuseKey[:]); err != nil {
		return nil, ErrBadPlatformState
	}
	var l [4]byte
	if _, err := r.Read(l[:]); err != nil {
		return nil, ErrBadPlatformState
	}
	keyDER := make([]byte, binary.BigEndian.Uint32(l[:]))
	if _, err := r.Read(keyDER); err != nil {
		return nil, ErrBadPlatformState
	}
	key, err := x509.ParseECPrivateKey(keyDER)
	if err != nil {
		return nil, fmt.Errorf("%w: quoting key: %v", ErrBadPlatformState, err)
	}
	p.quotingKey = key
	if _, err := r.Read(l[:]); err != nil {
		return nil, ErrBadPlatformState
	}
	n := binary.BigEndian.Uint32(l[:])
	var u64 [8]byte
	for i := uint32(0); i < n; i++ {
		if _, err := r.Read(u64[:]); err != nil {
			return nil, ErrBadPlatformState
		}
		id := binary.BigEndian.Uint64(u64[:])
		ctr := &hardwareCounter{}
		if _, err := r.Read(ctr.owner[:]); err != nil {
			return nil, ErrBadPlatformState
		}
		if _, err := r.Read(u64[:]); err != nil {
			return nil, ErrBadPlatformState
		}
		ctr.value = binary.BigEndian.Uint64(u64[:])
		p.counters[id] = ctr
	}
	if _, err := r.Read(u64[:]); err != nil {
		return nil, ErrBadPlatformState
	}
	p.nextCounter = binary.BigEndian.Uint64(u64[:])
	return p, nil
}

// LoadOrCreatePlatform restores the platform from path, or creates a fresh
// one and persists it there.
func LoadOrCreatePlatform(path string) (*Platform, error) {
	return LoadOrCreatePlatformFS(nil, path)
}

// LoadOrCreatePlatformFS is LoadOrCreatePlatform over an explicit
// filesystem (nil for the real one); the seam exists for fault injection.
// A present-but-corrupt state file is an error, not grounds for silently
// minting a fresh platform: that would reset every monotonic counter.
func LoadOrCreatePlatformFS(fsys vfs.FS, path string) (*Platform, error) {
	fsys = vfs.Default(fsys)
	if data, err := fsys.ReadFile(path); err == nil {
		return UnmarshalPlatform(data)
	}
	p := NewPlatform()
	if err := p.SaveStateFS(fsys, path); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveState re-persists the platform (e.g. after counter increments).
func (p *Platform) SaveState(path string) error {
	return p.SaveStateFS(nil, path)
}

// SaveStateFS is SaveState over an explicit filesystem (nil for the real
// one). The write is atomic, and owner-only: the state holds platform
// secrets.
func (p *Platform) SaveStateFS(fsys vfs.FS, path string) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, path, data, 0o600)
}
