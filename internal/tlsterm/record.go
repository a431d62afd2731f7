package tlsterm

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
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
	hdr [frameHeaderLen]byte // here, not on the stack: it escapes through io.ReadFull
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// next parses one frame from the stream. Only the public header is
// interpreted here; the payload is ciphertext (or a cleartext hello) that the
// record layer authenticates.
func (fr *frameReader) next() (byte, []byte, error) {
	hdr := &fr.hdr
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

// sessionKeys holds one direction's record protection state. Its owner
// uses it under one lock (the connection's read or write lock), which also
// covers the nonce and aad scratch: the record's AEAD inputs live here
// because they escape through the cipher.AEAD interface, so on the stack
// they would be two heap objects per record.
type sessionKeys struct {
	aead  cipher.AEAD
	iv    [12]byte
	seq   uint64
	nonce [12]byte
	aad   [9]byte
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

// prepare fills the nonce and additional data of the next record, of type
// ftype.
func (sk *sessionKeys) prepare(ftype byte) {
	sk.aad[0] = ftype
	binary.BigEndian.PutUint64(sk.aad[1:], sk.seq)
	sk.nonce = sk.iv
	for i, b := range sk.aad[1:] {
		sk.nonce[4+i] ^= b
	}
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
	sk.prepare(ftype)
	n := len(plaintext) + sk.aead.Overhead()
	dst = append(dst, ftype, byte(n>>16), byte(n>>8), byte(n))
	dst = sk.aead.Seal(dst, sk.nonce[:], plaintext, sk.aad[:])
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
	sk.prepare(ftype)
	pt, err := sk.aead.Open(ciphertext[:0], sk.nonce[:], ciphertext, sk.aad[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	sk.seq++
	return pt, nil
}

// openFrame dispatches one incoming frame of an established connection, for
// every terminator and the client: application data is opened in place, an
// alert is the peer's close_notify (alert levels are not distinguished) and
// reads as io.EOF, anything else is a protocol error.
func (sk *sessionKeys) openFrame(ftype byte, payload []byte) ([]byte, error) {
	switch ftype {
	case frameAppData:
		return sk.open(frameAppData, payload)
	case frameAlert:
		return nil, io.EOF
	default:
		return nil, fmt.Errorf("tlsterm: unexpected frame type %d", ftype)
	}
}

// framePool is the outside memory pool frames are sealed into (§4.2): a
// buffer holds one full-size record's frame.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, frameHeaderLen+maxFramePayload); return &b }}

// sealedFrames is a connection's sealed output on its way to the transport:
// complete wire frames, in sequence order, packed into pool buffers. A buffer
// takes whole frames while they fit, so a small frame group leaves as one
// transport write and a large transfer as one write per full-size record.
// The owner holds its write lock from the first seal until flush returns, so
// the sequence numbers consumed reach the wire in order.
type sealedFrames struct{ bufs []*[]byte }

// seal appends one record's frame.
func (sf *sealedFrames) seal(sk *sessionKeys, ftype byte, plaintext []byte) error {
	var buf *[]byte
	if n := len(sf.bufs); n > 0 && cap(*sf.bufs[n-1])-len(*sf.bufs[n-1]) >= sk.sealedFrameLen(len(plaintext)) {
		buf = sf.bufs[n-1]
	} else {
		buf = framePool.Get().(*[]byte)
		sf.bufs = append(sf.bufs, buf)
	}
	frame, err := sk.appendFrame(*buf, ftype, plaintext)
	if err != nil {
		return err
	}
	*buf = frame
	return nil
}

// sealData cuts plaintext into records of at most maxRecordPlaintext bytes
// and seals them in order as application data — the one write path of
// Conn.Write and SSL.Write. It returns the number of records.
func (sf *sealedFrames) sealData(sk *sessionKeys, plaintext []byte) (records int, err error) {
	for ; len(plaintext) > 0 && err == nil; records++ {
		chunk := plaintext[:min(len(plaintext), maxRecordPlaintext)]
		err = sf.seal(sk, frameAppData, chunk)
		plaintext = plaintext[len(chunk):]
	}
	return records, err
}

// flush writes the frames to the transport (when sealing them succeeded) and
// returns the buffers to the pool.
func (sf *sealedFrames) flush(w io.Writer, err error) error {
	for i, buf := range sf.bufs {
		if err == nil {
			_, err = w.Write(*buf)
		}
		*buf = (*buf)[:0]
		framePool.Put(buf)
		sf.bufs[i] = nil
	}
	sf.bufs = sf.bufs[:0]
	return err
}
