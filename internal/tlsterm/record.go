package tlsterm

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types on the wire.
const (
	frameClientHello    byte = 1
	frameServerHello    byte = 2
	frameClientFinished byte = 3
	frameServerFinished byte = 4
	frameAlert          byte = 21
	frameAppData        byte = 23
)

// maxRecordPlaintext is the largest plaintext carried by one record,
// matching TLS.
const maxRecordPlaintext = 16384

// maxFramePayload bounds any frame on the wire.
const maxFramePayload = maxRecordPlaintext + 1024

// frameHeaderLen is the public type(1) || length(3) prefix of every frame.
const frameHeaderLen = 4

// Errors of the record layer.
var (
	ErrRecordTooLarge = errors.New("tlsterm: record exceeds maximum size")
	ErrBadRecord      = errors.New("tlsterm: record authentication failed")
	ErrClosed         = errors.New("tlsterm: connection closed")
)

// writeFrame emits one frame: type(1) || length(3) || payload.
func writeFrame(w io.Writer, ftype byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return ErrRecordTooLarge
	}
	hdr := [frameHeaderLen]byte{ftype, byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameBytes serialises a frame into a fresh buffer.
func frameBytes(ftype byte, payload []byte) []byte {
	out := make([]byte, frameHeaderLen+len(payload))
	out[0] = ftype
	out[1], out[2], out[3] = byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload))
	copy(out[frameHeaderLen:], payload)
	return out
}

// frameReader reads frames from the network BIO into one buffer it reuses:
// the payload next returns is valid only until the following call. Records
// are opened in place, so the plaintext a connection still owes its caller
// (leftover) lives in this buffer and next is called only once it is drained.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// next parses one frame from the stream. Only the public header is
// interpreted here; the payload is ciphertext (or a cleartext hello) that the
// record layer authenticates.
func (fr *frameReader) next() (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > maxFramePayload {
		return 0, nil, ErrRecordTooLarge
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// sessionKeys holds one direction's record protection state.
type sessionKeys struct {
	aead cipher.AEAD
	iv   [12]byte
	seq  uint64
}

func newSessionKeys(key, iv []byte) (*sessionKeys, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	sk := &sessionKeys{aead: aead}
	copy(sk.iv[:], iv)
	return sk, nil
}

func (sk *sessionKeys) nonce() [12]byte {
	var n [12]byte
	copy(n[:], sk.iv[:])
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], sk.seq)
	for i := 0; i < 8; i++ {
		n[4+i] ^= seqb[i]
	}
	return n
}

// seal encrypts one record, consuming a sequence number.
func (sk *sessionKeys) seal(ftype byte, plaintext []byte) ([]byte, error) {
	if len(plaintext) > maxRecordPlaintext {
		return nil, ErrRecordTooLarge
	}
	nonce := sk.nonce()
	aad := [9]byte{ftype}
	binary.BigEndian.PutUint64(aad[1:], sk.seq)
	ct := sk.aead.Seal(nil, nonce[:], plaintext, aad[:])
	sk.seq++
	return ct, nil
}

// sealedFrameLen is the wire size of the frame appendFrame produces for n
// bytes of plaintext.
func (sk *sessionKeys) sealedFrameLen(n int) int {
	return frameHeaderLen + n + sk.aead.Overhead()
}

// appendFrame encrypts one record directly into a complete wire frame
// (header + ciphertext) appended to dst, consuming a sequence number. With
// sealedFrameLen bytes of spare capacity in dst nothing is allocated.
func (sk *sessionKeys) appendFrame(dst []byte, ftype byte, plaintext []byte) ([]byte, error) {
	if len(plaintext) > maxRecordPlaintext {
		return nil, ErrRecordTooLarge
	}
	nonce := sk.nonce()
	aad := [9]byte{ftype}
	binary.BigEndian.PutUint64(aad[1:], sk.seq)
	n := len(plaintext) + sk.aead.Overhead()
	dst = append(dst, ftype, byte(n>>16), byte(n>>8), byte(n))
	dst = sk.aead.Seal(dst, nonce[:], plaintext, aad[:])
	sk.seq++
	return dst, nil
}

// sealFrame is appendFrame into a fresh buffer of exactly the frame's size.
func (sk *sessionKeys) sealFrame(ftype byte, plaintext []byte) ([]byte, error) {
	return sk.appendFrame(make([]byte, 0, sk.sealedFrameLen(len(plaintext))), ftype, plaintext)
}

// open decrypts one record in place, consuming a sequence number: the
// returned plaintext occupies the front of ciphertext's memory.
func (sk *sessionKeys) open(ftype byte, ciphertext []byte) ([]byte, error) {
	nonce := sk.nonce()
	aad := [9]byte{ftype}
	binary.BigEndian.PutUint64(aad[1:], sk.seq)
	pt, err := sk.aead.Open(ciphertext[:0], nonce[:], ciphertext, aad[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	sk.seq++
	return pt, nil
}
