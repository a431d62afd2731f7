package mirror

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"libseal/internal/audit"
)

// feedScript encodes what a feed sends a subscriber after its hello: an ack
// for a mirror with nothing to resume, then the frames of steps. A step that
// opens a session is no frame of this one; it ends the script.
func feedScript(steps []step) []byte {
	script := encodeFrame(frameAck, marshalJSONFrame(ackMsg{Name: "git", ShardsTotal: 2, Manifested: true}))
	for _, st := range steps {
		if st.session != nil {
			break
		}
		script = append(script, encodeFrame(st.fr.typ, st.fr.payload)...)
	}
	return script
}

// fuzzSeeds are scripts of the set-rule table's cells — the first of each
// kind of compaction cell, and every adversarial cell that needs no second
// session — one frame header claiming a payload past maxFrameBytes, and one
// data frame for a shard the ack does not name; pub is the key their set is
// signed with.
func fuzzSeeds(f *testing.F) (seeds map[string][]byte, pub *ecdsa.PublicKey) {
	fx := newSetFixture(f)
	seeds = map[string][]byte{}
	for _, c := range fx.setRuleCells(f) {
		kind := c.name[:strings.LastIndexByte(c.name, '/')]
		if _, seen := seeds[kind]; !seen && !strings.HasSuffix(c.name, "reconnect") {
			seeds[kind] = feedScript(c.steps)
		}
	}
	oversized := feedScript(nil)
	oversized = binary.BigEndian.AppendUint32(append(oversized, frameData), maxFrameBytes+1)
	seeds["oversized frame"] = append(oversized, 0, 0, 1, 2, 3)
	seeds["unknown shard"] = append(feedScript(nil), encodeFrame(frameData, dataPayload(2, fx.a.shards[0]))...)
	return seeds, fx.e.encl.PublicKey()
}

// addSeeds adds fuzzSeeds in name order and returns their key.
func addSeeds(f *testing.F) *ecdsa.PublicKey {
	seeds, pub := fuzzSeeds(f)
	var names []string
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	return pub
}

// withTail describes the files of script's frames and, when the script frames
// whole, appends their tail frame to it.
func withTail(t *testing.T, script []byte) (out []byte, files setImages, whole bool) {
	files, whole = describe(t, script)
	if !whole {
		return script, files, false
	}
	tail := files.tail()
	return append(bytes.Clone(script), encodeFrame(tail.typ, tail.payload)...), files, true
}

// checkOffline fails t if a mirror that latched no violation verified more
// entries than VerifyPath accepts of files, torn tails tolerated.
func checkOffline(t *testing.T, pub *ecdsa.PublicKey, files setImages, verified int) {
	accepted := 0
	rep, err := audit.VerifyPath(context.Background(), files.write(t), audit.StreamOptions{
		VerifyOptions: audit.VerifyOptions{Pub: pub, RecoverTruncated: true}})
	if err == nil {
		accepted = rep.TotalEntries
	}
	if verified > accepted {
		t.Fatalf("the mirror verified %d entries with no violation; VerifyPath accepts %d of the files (%v)", verified, accepted, err)
	}
}

// FuzzMirrorFeed fuzzes the byte stream a mirror reads from a feed, through
// its own dialer, handshake and session (a one-shot scriptedFeed): the ack
// JSON under unmarshalStrict, then data, manifest, set-restart and tail
// frames, each read by readFrame. Oracle: no panic or hang; readFrame refuses
// a header claiming more than maxFrameBytes before it reads a payload; and a
// stream that frames whole is followed by the tail frame of the files its
// frames describe (each lane's bytes since the last set restart), after
// which a mirror that latched no violation reports no more entries than
// VerifyPath accepts of those files, torn tails tolerated.
func FuzzMirrorFeed(f *testing.F) {
	pub := addSeeds(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		script, files, whole := withTail(t, script)
		redialed := make(chan struct{})
		dials := 0
		m, err := Start(context.Background(), Config{Name: "git", Pub: pub, BackoffMin: time.Millisecond, RestartGrace: time.Hour,
			Dial: func(context.Context) (net.Conn, error) {
				if dials++; dials > 1 {
					if dials == 2 {
						close(redialed) // the session over the script has ended
					}
					return nil, errors.New("script over")
				}
				mirrorSide, feedSide := net.Pipe()
				go func() {
					defer feedSide.Close()
					if _, _, err := readFrame(feedSide); err == nil {
						feedSide.Write(script)
					}
				}()
				return mirrorSide, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-m.Done():
		case <-redialed:
		case <-time.After(10 * time.Second):
			t.Fatalf("the mirror neither latched nor finished the script: %+v", m.Report())
		}
		m.Stop(context.Background())
		if whole && m.Err() == nil {
			checkOffline(t, pub, files, m.Report().TotalEntries)
		}
	})
}

// FuzzMirrorFrames fuzzes the same scripts against the same oracle without a
// session: a socket-less Mirror, built as the set-rule table builds one,
// takes the ack through the handshake's checks and restartLocked, then each
// frame through handleFrame and the between-frame continuity check, as its
// session would, until the stream ends or a frame latches a violation. An
// exec costs the mirror's frame handling, not a dial, a pipe and two
// goroutines.
func FuzzMirrorFrames(f *testing.F) {
	pub := addSeeds(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		script, files, whole := withTail(t, script)
		r := bytes.NewReader(script)
		typ, payload, err := readFrame(r)
		var ack ackMsg
		if err != nil || typ != frameAck || unmarshalStrict(payload, &ack) != nil ||
			ack.ShardsTotal <= 0 || ack.ShardsTotal > 1<<12 || !ack.Manifested {
			return // the handshake refuses it
		}
		m := &Mirror{cfg: Config{Name: "git", Pub: pub, RestartGrace: time.Hour}, connected: true}
		m.shards = make([]*shardState, ack.ShardsTotal)
		for k := range m.shards {
			m.shards[k] = &shardState{}
		}
		if m.restartLocked(&ack) {
			return // the handshake refuses a resumed lane the mirror starts cold
		}
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				break // the link ends the session
			}
			if err = m.handleFrame(typ, payload); err == nil {
				err = m.timeChecks()
			}
			if err != nil {
				return // latched
			}
		}
		if whole {
			checkOffline(t, pub, files, m.Report().TotalEntries)
		}
	})
}

func encodeFrame(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, typ, payload)
	return b.Bytes()
}

// describe reads script as the mirror will and returns the files its frames
// describe — each lane's bytes since the last set restart, for the shards the
// ack names — and whether it frames whole, starting with a usable ack of at
// most 8 shards (a directory the oracle can write cheaply).
func describe(t *testing.T, script []byte) (files setImages, whole bool) {
	r := bytes.NewReader(script)
	var ack ackMsg
	for first := true; ; first = false {
		hdr := r.Len()
		typ, payload, err := readFrame(r)
		if err == io.EOF {
			return files, !first
		}
		if err != nil {
			if hdr >= 5 && binary.BigEndian.Uint32(script[len(script)-hdr+1:]) > maxFrameBytes && !strings.Contains(err.Error(), "oversized") {
				t.Fatalf("a header claiming more than %d bytes: %v, want it refused as oversized", maxFrameBytes, err)
			}
			return files, false
		}
		switch {
		case first:
			if typ != frameAck || unmarshalStrict(payload, &ack) != nil || ack.ShardsTotal <= 0 || ack.ShardsTotal > 8 || !ack.Manifested {
				return files, false
			}
			files.shards = make([][]byte, ack.ShardsTotal)
		case typ == frameData && len(payload) >= 2:
			if k := int(binary.BigEndian.Uint16(payload)); k < len(files.shards) {
				files.shards[k] = append(files.shards[k], payload[2:]...)
			}
		case typ == frameManifest:
			files.sidecar = append(files.sidecar, payload...)
		case typ == frameSetRestart:
			files = setImages{shards: make([][]byte, ack.ShardsTotal)}
		}
	}
}
