package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"time"

	"libseal/internal/telemetry"
)

// Sealing telemetry: counts and AES-GCM latency for the audit log's
// persistence path (§6.3).
var (
	mSeals         = telemetry.NewCounter("enclave.seals", "calls")
	mUnseals       = telemetry.NewCounter("enclave.unseals", "calls")
	mSealLatency   = telemetry.NewHistogram("enclave.seal.latency", "ns")
	mUnsealLatency = telemetry.NewHistogram("enclave.unseal.latency", "ns")
)

// SealPolicy selects the identity the sealing key is bound to.
type SealPolicy int

const (
	// PolicyMeasurement (MRENCLAVE) binds sealed data to the exact enclave
	// code; only the identical enclave on the same platform can unseal.
	PolicyMeasurement SealPolicy = iota
	// PolicySigner (MRSIGNER) binds sealed data to the signing authority;
	// any enclave from the same authority on the same platform can unseal.
	// LibSEAL uses this so the audit log survives enclave upgrades and can
	// be shared across instances signed by the provider (§6.3).
	PolicySigner
)

// sealKey derives the 128-bit sealing key for the given policy from the
// platform fuse key and the enclave identity, mirroring EGETKEY.
func (e *Enclave) sealKey(policy SealPolicy) []byte {
	mac := hmac.New(sha256.New, e.platform.fuseKey[:])
	switch policy {
	case PolicySigner:
		mac.Write([]byte("seal/signer"))
		mac.Write(e.signer[:])
	default:
		mac.Write([]byte("seal/measurement"))
		mac.Write(e.meas[:])
	}
	return mac.Sum(nil)[:16]
}

// SealOverhead is what Seal adds to a plaintext: the policy byte, the GCM
// nonce and the GCM tag.
const SealOverhead = 1 + 12 + 16

// Seal encrypts and integrity-protects plaintext so that it can be stored on
// untrusted persistent storage. aad is authenticated but not encrypted.
func (c *Ctx) Seal(policy SealPolicy, plaintext, aad []byte) ([]byte, error) {
	c.check()
	e := c.e
	e.stats.Seals.Add(1)
	mSeals.Inc()
	defer telemetry.ObserveSince(mSealLatency, "enclave.seal", time.Now())
	block, err := aes.NewCipher(e.sealKey(policy))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	out := make([]byte, 1, SealOverhead+len(plaintext))
	out[0] = byte(policy)
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, plaintext, aad), nil
}

// Unseal decrypts a blob produced by Seal. It fails with ErrSealCorrupted if
// the blob was tampered with, the aad differs, or the unsealing enclave does
// not satisfy the seal policy.
func (c *Ctx) Unseal(blob, aad []byte) ([]byte, error) {
	c.check()
	e := c.e
	e.stats.Unseals.Add(1)
	mUnseals.Inc()
	defer telemetry.ObserveSince(mUnsealLatency, "enclave.unseal", time.Now())
	if len(blob) < 1 {
		return nil, ErrSealCorrupted
	}
	policy := SealPolicy(blob[0])
	if policy != PolicyMeasurement && policy != PolicySigner {
		return nil, ErrSealCorrupted
	}
	block, err := aes.NewCipher(e.sealKey(policy))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	rest := blob[1:]
	if len(rest) < gcm.NonceSize() {
		return nil, ErrSealCorrupted
	}
	nonce, ct := rest[:gcm.NonceSize()], rest[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, aad)
	if err != nil {
		return nil, ErrSealCorrupted
	}
	return pt, nil
}
