package enclave

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"libseal/internal/vfs"
)

// Platform persistence. A real SGX machine's fuse key and provisioned
// attestation key live in hardware and survive reboots; the simulation
// equivalent is serialising the platform's secrets to a state file. Loading
// the file is the analogue of launching enclaves on the same physical
// machine, which is what makes the audit signing key recoverable across
// process restarts. The state file is as sensitive as
// the hardware it stands in for; it exists so that the CLI tools can
// demonstrate restart recovery.
//
// Format 3 is the fuse key and the quoting key followed by a SHA-256
// checksum, so a torn or corrupted state file is detected at load, and saves
// go through write-temp + fsync + rename so a crash mid-save leaves the
// previous intact state in place. Formats 1 and 2, which also carried
// hardware-counter state, are refused by name.

// ErrBadPlatformState reports a malformed platform state blob.
var ErrBadPlatformState = errors.New("enclave: malformed platform state")

const (
	platformStatePrefix = "LSEALPLATFORM"
	platformStateMagic  = platformStatePrefix + "3\n"
)

// Marshal serialises the platform's secrets with a trailing SHA-256
// checksum over everything before it.
func (p *Platform) Marshal() ([]byte, error) {
	keyDER, err := x509.MarshalECPrivateKey(p.quotingKey)
	if err != nil {
		return nil, fmt.Errorf("enclave: marshal quoting key: %w", err)
	}
	buf := append([]byte(platformStateMagic), p.fuseKey[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keyDER)))
	buf = append(buf, keyDER...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// UnmarshalPlatform restores a platform from Marshal output, verifying its
// checksum.
func UnmarshalPlatform(data []byte) (*Platform, error) {
	magic := len(platformStateMagic)
	if !bytes.HasPrefix(data, []byte(platformStateMagic)) {
		if bytes.HasPrefix(data, []byte(platformStatePrefix)) && len(data) > magic {
			return nil, fmt.Errorf("%w: platform state format %c is not supported; this build reads format 3", ErrBadPlatformState, data[magic-2])
		}
		return nil, ErrBadPlatformState
	}
	if len(data) < magic+len(Platform{}.fuseKey)+4+sha256.Size {
		return nil, ErrBadPlatformState
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if want := sha256.Sum256(body); !bytes.Equal(want[:], sum) {
		return nil, fmt.Errorf("%w: checksum mismatch (torn or corrupted state file)", ErrBadPlatformState)
	}
	p := &Platform{}
	body = body[magic+copy(p.fuseKey[:], body[magic:]):]
	n := binary.BigEndian.Uint32(body)
	if uint64(len(body)-4) != uint64(n) {
		return nil, ErrBadPlatformState
	}
	key, err := x509.ParseECPrivateKey(body[4:])
	if err != nil {
		return nil, fmt.Errorf("%w: quoting key: %v", ErrBadPlatformState, err)
	}
	p.quotingKey = key
	return p, nil
}

// LoadOrCreatePlatform restores the platform from path, or creates a fresh
// one and persists it there (atomically, owner-only: the state holds
// platform secrets). A present-but-corrupt state file is an error, not
// grounds for silently minting a fresh platform: that would change the audit
// signing key.
func LoadOrCreatePlatform(path string) (*Platform, error) {
	if data, err := os.ReadFile(path); err == nil {
		return UnmarshalPlatform(data)
	}
	p := NewPlatform()
	data, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	if err := vfs.WriteFileAtomic(nil, path, data, 0o600); err != nil {
		return nil, err
	}
	return p, nil
}
