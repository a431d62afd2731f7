package mirror

import (
	"bytes"
	"cmp"
	"context"
	"crypto/ecdsa"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/audit"
)

// The mirror's rule is the offline set rule (audit.VerifyPath's) applied to
// the prefix of each file it holds. The tests below script a 2-shard set's
// life — appends and a manifest (A), a trim and compaction (B), more appends
// and a later manifest (C) — and deliver it to a mirror frame by frame: every
// lane-frame interleaving the feed can produce, and the adversarial ones a
// feed can invent. Once the mirror holds every file whole (a tail frame at
// zero lag), its verdict must be VerifyPath's on the directory the frames
// describe, cell by cell.

// setImages is a set's files: each shard's, then the sidecar.
type setImages struct {
	shards  [][]byte
	sidecar []byte
}

// lanes lists the set's files in the feed's lane order.
func (s setImages) lanes() [][]byte { return append(append([][]byte{}, s.shards...), s.sidecar) }

// write lays the set out in a fresh directory as the writer does.
func (s setImages) write(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	for k, img := range s.shards {
		if err := os.WriteFile(filepath.Join(dir, audit.ShardName("git", k)+".lseal"), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, audit.ManifestFileName("git")), s.sidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// tail is the tail frame of a feed whose committed files are s.
func (s setImages) tail() frame {
	t := tailMsg{Manifest: int64(len(s.sidecar))}
	for _, img := range s.shards {
		t.Shards = append(t.Shards, int64(len(img)))
	}
	return frame{frameTail, marshalJSONFrame(t)}
}

// laneFrame frames bytes of lane i (a shard's, or the sidecar's last).
func laneFrame(lanes, i int, b []byte) frame {
	if i == lanes-1 {
		return frame{frameManifest, b}
	}
	return frame{frameData, dataPayload(i, b)}
}

// whole streams every lane of s from offset 0, in lane order.
func (s setImages) whole() []step {
	var steps []step
	lanes := s.lanes()
	for i, b := range lanes {
		steps = append(steps, step{fr: laneFrame(len(lanes), i, b)})
	}
	return steps
}

// step is one event of a cell: a frame, or a new session with a feed serving
// the files of session: its ack answers the mirror's resume claims with the
// records they name, and it streams each lane on from where the ack left it.
type step struct {
	fr      frame
	session *setImages
}

// setFixture is a live 2-shard set at the three points of its life.
type setFixture struct {
	e       *mirrorEnv
	a, b, c setImages
}

func (e *mirrorEnv) images() setImages { return e.imagesOf(e.log) }

// imagesOf reads the files of log, a set in e's directory.
func (e *mirrorEnv) imagesOf(log *audit.ShardedLog) setImages {
	e.t.Helper()
	var s setImages
	for _, lf := range log.Files() {
		img, err := os.ReadFile(lf.Path())
		if err != nil {
			e.t.Fatal(err)
		}
		if strings.HasSuffix(lf.Path(), ".manifest") {
			s.sidecar = img
		} else {
			s.shards = append(s.shards, img)
		}
	}
	return s
}

func (e *mirrorEnv) compact(where string) {
	e.call(func(env *asyncall.Env) error {
		script, err := e.log.DB().PrepareScript("DELETE FROM updates WHERE " + where)
		if err != nil {
			return err
		}
		plan, err := audit.PlanTrim(e.log.DB().Snapshot(), script)
		if err != nil {
			return err
		}
		if err := e.log.ApplyTrim(env, plan); err != nil {
			return err
		}
		return e.log.Compact(env)
	})
}

func newSetFixture(t testing.TB) *setFixture {
	f := &setFixture{e: newMirrorEnv(t, 2, time.Hour)}
	f.e.append(30)
	f.e.call(f.e.log.WriteManifest)
	f.a = f.e.images()
	f.e.compact("seq < 10")
	f.b = f.e.images()
	f.e.append(20)
	f.e.call(f.e.log.WriteManifest)
	f.c = f.e.images()
	return f
}

// ackFor is the ack a feed serving the files s answers m's hello with: the
// records m's resume claims name, read from the files (SigProof,
// ManifestRecordProof), or a cold start for a lane where there is none.
func ackFor(m *Mirror, s setImages) *ackMsg {
	st := m.set.Snapshot()
	ack := &ackMsg{Name: "git", ShardsTotal: len(s.shards), Manifested: true, Shards: make([]shardAck, len(st.Shards))}
	for k, mem := range st.Shards {
		if p := mem.Last; p != nil && k < len(s.shards) {
			if proof, err := audit.SigProof(bytes.NewReader(s.shards[k]), p.SigOffset, p.Offset); err == nil {
				ack.Shards[k] = shardAck{Ok: true, Proof: proof}
			}
		}
	}
	if pos := st.Manifest; pos.Offset > 0 {
		if proof, err := audit.ManifestRecordProof(bytes.NewReader(s.sidecar), pos.RecOff, pos.Offset); err == nil {
			ack.ManifestOk, ack.ManifestProof = true, proof
		}
	}
	return ack
}

// player delivers a cell's steps to a mirror and keeps the files the steps
// describe: each lane's bytes since the last set restart, or a session's.
type player struct {
	m     *Mirror
	files setImages
}

// newPlayer starts a fresh mirror of a 2-shard set signed by pub's key, whose
// first session has nothing to resume.
func newPlayer(pub *ecdsa.PublicKey) *player {
	p := &player{m: &Mirror{cfg: Config{Name: "git", Pub: pub, RestartGrace: time.Hour}}, files: setImages{shards: make([][]byte, 2)}}
	p.m.newSet(2)
	p.m.restartLocked(&ackMsg{Name: "git", ShardsTotal: 2, Manifested: true})
	return p
}

// step delivers one step.
func (p *player) step(st step) error {
	if st.session != nil {
		p.files = *st.session
		return p.session()
	}
	switch st.fr.typ {
	case frameData:
		if k := int(binary.BigEndian.Uint16(st.fr.payload)); k < len(p.files.shards) {
			p.files.shards[k] = append(slices.Clip(p.files.shards[k]), st.fr.payload[2:]...)
		}
	case frameManifest:
		p.files.sidecar = append(slices.Clip(p.files.sidecar), st.fr.payload...)
	case frameSetRestart:
		p.files = setImages{shards: make([][]byte, len(p.files.shards))}
	}
	return p.m.handleFrame(st.fr.typ, st.fr.payload)
}

// session opens a session with a feed serving p.files: its ack answers the
// mirror's resume claims, and it streams each lane on from where the ack left
// it.
func (p *player) session() error {
	if p.m.restartLocked(ackFor(p.m, p.files)) {
		p.m.restartLocked(ackFor(p.m, p.files)) // the mirror reconnects cold
	}
	for i, img := range p.files.lanes() {
		at := p.m.mreader.Offset()
		if i < len(p.m.shards) {
			at = p.m.shards[i].v.Offset()
		}
		fr := laneFrame(len(p.m.shards)+1, i, img[min(at, int64(len(img))):])
		if err := p.m.handleFrame(fr.typ, fr.payload); err != nil {
			return err
		}
	}
	return nil
}

// restarted is the mirror process restarted from state, the contents of its
// state file: a new mirror built from the file, in a session with a feed
// serving the files delivered so far.
func (p *player) restarted(t testing.TB, state []byte) (*player, error) {
	q := &player{m: &Mirror{cfg: p.m.cfg}, files: setImages{shards: slices.Clone(p.files.shards), sidecar: p.files.sidecar}}
	if err := q.m.restore(state); err != nil {
		t.Fatal(err)
	}
	return q, q.session()
}

// verdict plays steps from i on and returns the mirror's verdict and the
// entries it verified.
func (p *player) verdict(steps []step) (int, error) {
	for _, st := range steps {
		if err := p.step(st); err != nil {
			return p.m.Report().TotalEntries, err
		}
	}
	return p.m.Report().TotalEntries, nil
}

// play delivers steps to a fresh mirror and returns its verdict and the
// entries it verified.
func play(t testing.TB, pub *ecdsa.PublicKey, steps []step) (int, error) {
	return newPlayer(pub).verdict(steps)
}

// playRestarting calls fn with the verdict of steps played to a fresh mirror
// (at -1), then with the verdict of each play in which the mirror process
// restarts before step at, for every at between two steps the mirror reached
// without a violation: the mirror's state file there is the snapshot of its
// set (saveState), from which a restarted mirror plays on.
func playRestarting(t testing.TB, pub *ecdsa.PublicKey, steps []step, fn func(at, entries int, err error)) {
	p := newPlayer(pub)
	type fork struct {
		state []byte
		at    *player
	}
	var forks []fork
	var err error
	for i, st := range steps {
		if i > 0 {
			state, jerr := json.Marshal(p.m.set.Snapshot())
			if jerr != nil {
				t.Fatal(jerr)
			}
			forks = append(forks, fork{state, &player{m: p.m, files: setImages{shards: slices.Clone(p.files.shards), sidecar: p.files.sidecar}}})
		}
		if err = p.step(st); err != nil {
			break
		}
	}
	fn(-1, p.m.Report().TotalEntries, err)
	for i, f := range forks {
		q, err := f.at.restarted(t, f.state)
		entries := q.m.Report().TotalEntries
		if err == nil {
			entries, err = q.verdict(steps[i+1:])
		}
		fn(i+1, entries, err)
	}
}

// offline memoises VerifyPath's verdicts on the sets the table ends on.
type offline map[string]verdict

type verdict struct {
	entries int
	err     error
}

func (o offline) verify(t testing.TB, pub *ecdsa.PublicKey, s setImages) verdict {
	key := fmt.Sprint(s.shards, s.sidecar)
	if v, ok := o[key]; ok {
		return v
	}
	var v verdict
	rep, err := audit.VerifyPath(context.Background(), s.write(t), audit.StreamOptions{VerifyOptions: audit.VerifyOptions{Pub: pub}})
	if err != nil {
		v.err = err
	} else {
		v.entries = rep.TotalEntries
	}
	o[key] = v
	return v
}

// interleavings calls fn with every merge of the lanes' chunk sequences that
// keeps each lane's chunks in order.
func interleavings(lanes [][][]byte, fn func([]step)) {
	n := len(lanes)
	next := make([]int, n)
	var cur []step
	var rec func()
	rec = func() {
		done := true
		for i := range lanes {
			if next[i] == len(lanes[i]) {
				continue
			}
			done = false
			cur = append(cur, step{fr: laneFrame(n, i, lanes[i][next[i]])})
			next[i]++
			rec()
			next[i]--
			cur = cur[:len(cur)-1]
		}
		if done {
			fn(append([]step(nil), cur...))
		}
	}
	rec()
}

// rounds is what the feed streams after a compaction: in each round every
// lane in order, up to the committed size it reads then, so in a first round
// any lane may stop at the compacted set's image (B) or reach the later
// state (C), and a second round brings every lane to C. With split set a
// lane's bytes come in two frames cut at their middle byte, so records
// straddle frames.
func rounds(b, c setImages, split bool, fn func([]step)) {
	bl, cl := b.lanes(), c.lanes()
	for first := 0; first < 1<<len(bl); first++ {
		var steps []step
		at := make([]int, len(bl))
		for r := 0; r < 2; r++ {
			for i := range bl {
				to := len(cl[i])
				if r == 0 && first&(1<<i) == 0 {
					to = len(bl[i])
				}
				cuts := []int{at[i], to}
				if split && to > at[i]+1 {
					cuts = []int{at[i], (at[i] + to) / 2, to}
				}
				for j := 1; j < len(cuts); j++ {
					if cuts[j] > cuts[j-1] {
						steps = append(steps, step{fr: laneFrame(len(cl), i, cl[i][cuts[j-1]:cuts[j]])})
					}
				}
				at[i] = to
			}
		}
		fn(steps)
	}
}

// chunks cuts each lane of the later states into one chunk per state it
// passes: B's image, then the bytes C appends.
func chunks(b, c setImages) [][][]byte {
	bl, cl := b.lanes(), c.lanes()
	lanes := make([][][]byte, len(cl))
	for i := range cl {
		lanes[i] = [][]byte{cl[i][:len(bl[i])], cl[i][len(bl[i]):]}
	}
	return lanes
}

// setRuleCell is one row of the table: steps, the set they end on, and
// whether the mirror's memory refuses what the files alone pass.
type setRuleCell struct {
	name     string
	pub      *ecdsa.PublicKey
	steps    []step
	dir      setImages
	stricter string // the violation the mirror must latch where VerifyPath passes
}

// setRuleCells enumerates the table: the compaction's new lanes after the
// set-restart frame as the feed streams them, from each point the mirror can
// have reached in the old set, whole and with records straddling frames; in
// every order a lying feed could choose, from the first and the last of
// those points; then the adversarial cells.
func (f *setFixture) setRuleCells(t testing.TB) []setRuleCell {
	var cells []setRuleCell
	pub := f.e.encl.PublicKey()
	a := f.a.lanes()
	pre := map[string][]step{
		"connect after": nil,
		"mid shard 0":   {{fr: laneFrame(3, 0, a[0][:len(a[0])/2])}},
		"shards only":   {{fr: laneFrame(3, 0, a[0])}, {fr: laneFrame(3, 1, a[1])}},
		"caught up":     append(f.a.whole(), step{fr: f.a.tail()}),
	}
	for _, p := range []string{"connect after", "mid shard 0", "shards only", "caught up"} {
		add := func(kind string, i int, after []step) {
			steps := append([]step(nil), pre[p]...)
			if p != "connect after" {
				steps = append(steps, step{fr: frame{frameSetRestart, nil}})
			}
			steps = append(append(steps, after...), step{fr: f.c.tail()})
			cells = append(cells, setRuleCell{name: fmt.Sprintf("compaction/%s/%s/%d", p, kind, i), pub: pub, steps: steps, dir: f.c})
		}
		for _, split := range []bool{false, true} {
			i := 0
			rounds(f.b, f.c, split, func(after []step) { add(fmt.Sprintf("rounds,split=%v", split), i, after); i++ })
		}
		if p == "connect after" || p == "caught up" {
			i := 0
			interleavings(chunks(f.b, f.c), func(after []step) { add("any order", i, after); i++ })
		}
	}
	caught := append(f.a.whole(), step{fr: f.a.tail()})
	restart := func(s setImages) []step {
		steps := append(append([]step(nil), caught...), step{fr: frame{frameSetRestart, nil}})
		return append(append(steps, s.whole()...), step{fr: s.tail()})
	}
	reconnect := func(s setImages) []step {
		return append(append([]step(nil), caught...), step{session: &s}, step{fr: s.tail()})
	}
	swapped := setImages{shards: f.a.shards, sidecar: f.c.sidecar}
	swappedBelow := setImages{shards: f.a.shards, sidecar: f.b.sidecar} // attests only states below A's heads
	replaced := setImages{shards: [][]byte{f.c.shards[0], f.a.shards[1]}, sidecar: f.a.sidecar}
	cut := setImages{shards: [][]byte{f.cutBack(), f.a.shards[1]}, sidecar: f.a.sidecar}
	cells = append(cells,
		setRuleCell{pub: pub, name: "honest/set restart", steps: restart(f.c), dir: f.c},
		setRuleCell{pub: pub, name: "honest/compacted while disconnected", steps: reconnect(f.c), dir: f.c},
		setRuleCell{pub: pub, name: "honest/reconnect", steps: reconnect(f.a), dir: f.a},
		setRuleCell{pub: pub, name: "sidecar swapped alone/set restart", steps: restart(swapped), dir: swapped},
		setRuleCell{pub: pub, name: "sidecar swapped alone/reconnect", steps: reconnect(swapped), dir: swapped},
		setRuleCell{pub: pub, name: "sidecar swapped alone, below the heads/reconnect", steps: reconnect(swappedBelow), dir: swappedBelow},
		setRuleCell{pub: pub, name: "shard file replaced alone/set restart", steps: restart(replaced), dir: replaced},
		setRuleCell{pub: pub, name: "shard file replaced alone/reconnect", steps: reconnect(replaced), dir: replaced},
		setRuleCell{pub: pub, name: "shard cut back/set restart", steps: restart(cut), dir: cut},
		setRuleCell{pub: pub, name: "shard cut back/reconnect", steps: reconnect(cut), dir: cut},
	)
	return cells
}

// cutBack is shard 0 of A cut back to its first commit point, below the
// state A's last manifest attests.
func (f *setFixture) cutBack() []byte {
	var first int64
	v := audit.NewIncrementalVerifier(audit.VerifyOptions{Pub: f.e.encl.PublicKey()}, func(ci audit.CommitInfo) error {
		first = cmp.Or(first, ci.Offset)
		return nil
	})
	if err := v.Feed(f.a.shards[0]); err != nil || first == 0 {
		f.e.t.Fatalf("shard 0 of A: first commit point at %d, %v", first, err)
	}
	return f.a.shards[0][:first]
}

// TestMirrorSetRule: in every cell the mirror's verdict once it holds every
// file whole is VerifyPath's on the files the frames describe — also with the
// mirror process restarted between any two of the cell's steps, from its state
// file, into a session with a feed serving the files delivered so far.
func TestMirrorSetRule(t *testing.T) {
	f := newSetFixture(t)
	o := offline{}
	cells := f.setRuleCells(t)
	cells = append(cells, serverBehindCell(t))
	cells = append(cells, middleManifestCells(t)...)
	plays := 0
	for _, c := range cells {
		want := o.verify(t, c.pub, c.dir)
		playRestarting(t, c.pub, c.steps, func(at, entries int, err error) {
			plays++
			name := c.name
			if at > 0 {
				name = fmt.Sprintf("%s/restart before step %d", c.name, at)
			}
			if c.stricter != "" {
				if want.err != nil || !errors.Is(err, audit.ErrBadCounter) || !strings.Contains(err.Error(), c.stricter) {
					t.Errorf("%s: mirror %v, want %q; VerifyPath %v, want it to pass", name, err, c.stricter, want.err)
				}
				return
			}
			switch {
			case (err == nil) != (want.err == nil):
				t.Errorf("%s: mirror verdict %v, VerifyPath %v", name, err, want.err)
			case err == nil && entries != want.entries:
				t.Errorf("%s: mirror verified %d entries, VerifyPath %d", name, entries, want.entries)
			}
		})
	}
	t.Logf("%d cells, %d plays", len(cells), plays)
}

// recover restarts e's set from its files, as a restarted server does, with
// RecoverMaxLag lag. The set e.log was must be closed.
func (e *mirrorEnv) recover(lag uint64) *audit.ShardedLog {
	var rec *audit.ShardedLog
	e.call(func(env *asyncall.Env) error {
		var err error
		rec, err = audit.RecoverSharded(env, audit.ShardedConfig{
			Config: audit.Config{Name: "git", Schema: testSchema, Mode: audit.ModeDisk, Dir: e.dir, Protector: e.group, RecoverMaxLag: lag},
			Shards: 2, ManifestEvery: time.Hour,
		}, e.encl.PublicKey())
		return err
	})
	return rec
}

// serverBehindCell: the mirror has verified shard 0 to seq 6, and the server
// comes back recovered at seq 5 — its last batch gone, the counter lag of one
// tolerated (RecoverMaxLag 1) and re-anchored. An honest server cannot do
// this: the feed streams only committed bytes, and recovery never cuts a
// committed byte. No set-restart frame comes, so the mirror reconnects, and a
// cold-restarted shard that is not part of a later incarnation must reach its
// checkpoint's seq again with the same chain head. The recovered files alone
// pass VerifyPath: the refusal is the mirror's memory of seq 6.
func serverBehindCell(t *testing.T) setRuleCell {
	e := newMirrorEnv(t, 2, time.Hour)
	e.appendShard(0, 5)
	path := filepath.Join(e.dir, audit.ShardName("git", 0)+".lseal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	e.appendShard(0, 1)
	seen := e.images()
	if err := e.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()); err != nil {
		t.Fatal(err)
	}
	rec := e.recover(1)
	back := e.imagesOf(rec)
	rec.Close()
	steps := append(seen.whole(), step{fr: seen.tail()}, step{session: &back}, step{fr: back.tail()})
	return setRuleCell{name: "server behind the mirror/reconnect", pub: e.encl.PublicKey(), steps: steps, dir: back, stricter: "does not hold seq=6"}
}

// middleManifestCells: a sidecar with a manifest deleted from its middle. The
// epochs left still increase and every state they attest is on its shard,
// but the next manifest's link names the deleted record, so VerifyPath
// refuses the files. The mirror refuses them read cold, and resumed after the
// manifest before the gap, which it verified before the deletion.
func middleManifestCells(t *testing.T) []setRuleCell {
	e := newMirrorEnv(t, 2, time.Hour)
	for i := 0; i < 3; i++ {
		e.append(10)
		e.call(e.log.WriteManifest)
	}
	seen := e.images()
	seen.sidecar = seen.sidecar[:manifestRecordEnd(t, seen.sidecar, 1)]
	cut := e.images()
	cut.sidecar = append(bytes.Clone(cut.sidecar[:manifestRecordEnd(t, cut.sidecar, 1)]), cut.sidecar[manifestRecordEnd(t, cut.sidecar, 2):]...)
	pub := e.encl.PublicKey()
	if _, err := audit.VerifyPath(context.Background(), cut.write(t), audit.StreamOptions{VerifyOptions: audit.VerifyOptions{Pub: pub}}); !errors.Is(err, audit.ErrTampered) || !strings.HasSuffix(err.Error(), "manifest 2 (epoch 4): link mismatch") {
		t.Fatalf("VerifyPath on the sidecar without its epoch-3 manifest: %v", err)
	}
	return []setRuleCell{
		{name: "middle manifest deleted/cold", pub: pub, steps: append(cut.whole(), step{fr: cut.tail()}), dir: cut},
		{name: "middle manifest deleted/reconnect", pub: pub, dir: cut,
			steps: append(seen.whole(), step{fr: seen.tail()}, step{session: &cut}, step{fr: cut.tail()})},
	}
}

// manifestRecordEnd is the offset in sidecar just past its record i.
func manifestRecordEnd(t *testing.T, sidecar []byte, i int) int {
	off := len("LIBSEALMAN2\n")
	for ; i >= 0; i-- {
		if off+5 > len(sidecar) {
			t.Fatalf("the sidecar holds no record %d", i)
		}
		off += 5 + int(binary.BigEndian.Uint32(sidecar[off+1:off+5]))
	}
	return off
}

// lanePart frames lane i of s, its bytes from..to.
func lanePart(s setImages, i, from, to int) step {
	lanes := s.lanes()
	return step{fr: laneFrame(len(lanes), i, lanes[i][from:min(to, len(lanes[i]))])}
}

// TestMirrorManifestRestartBeforeShardRestart: after a compaction's
// set-restart frame the rewritten sidecar's manifests can reach the mirror
// before a shard's rewritten bytes. Their claims wait for the shards'
// streams, and are met when those arrive. A feed that swaps the sidecar
// alone — a set restart, then the replaced shard files again — is a rolled-
// back shard as soon as a shard's stream passes what the sidecar attests,
// without a tail frame or a grace running out.
func TestMirrorManifestRestartBeforeShardRestart(t *testing.T) {
	f := newSetFixture(t)
	pub := f.e.encl.PublicKey()
	restart := append(f.a.whole(), step{fr: f.a.tail()}, step{fr: frame{frameSetRestart, nil}})
	bl, cl := f.b.lanes(), f.c.lanes()
	steps := append(append([]step(nil), restart...), lanePart(f.c, 2, 0, len(cl[2])))
	if _, err := play(t, pub, steps); err != nil {
		t.Fatalf("the rewritten sidecar before any shard's bytes: %v", err)
	}
	for k := 0; k < 2; k++ {
		steps = append(steps, lanePart(f.c, k, 0, len(bl[k])), lanePart(f.c, k, len(bl[k]), len(cl[k])))
	}
	if n, err := play(t, pub, append(steps, step{fr: f.c.tail()})); err != nil || n != 40 {
		t.Fatalf("after every shard's bytes: %d entries, %v; want the 40 the compacted set holds", n, err)
	}

	swapped := append(append([]step(nil), restart...), lanePart(f.c, 2, 0, len(cl[2])))
	swapped = append(swapped, f.a.whole()[:2]...)
	_, err := play(t, pub, swapped)
	if !errors.Is(err, audit.ErrBadCounter) || !strings.Contains(err.Error(), "shard rolled back") {
		t.Fatalf("rewritten sidecar, replaced shard files: %v, want a rolled-back shard", err)
	}
}

// TestMirrorShardRestartBeforeManifestRestart: in the order an honest feed
// streams a compaction — the shards' rewritten files, then the sidecar's —
// every claim of the rewritten sidecar and of a later manifest is met by the
// commits that reach it. A feed that serves the replaced shard files after
// the set restart is a rolled-back shard at the commit that passes the
// rewritten sidecar's claim, not at a tail frame.
func TestMirrorShardRestartBeforeManifestRestart(t *testing.T) {
	f := newSetFixture(t)
	pub := f.e.encl.PublicKey()
	restart := append(f.a.whole(), step{fr: f.a.tail()}, step{fr: frame{frameSetRestart, nil}})
	bl, cl := f.b.lanes(), f.c.lanes()
	steps := append([]step(nil), restart...)
	for i := range bl {
		steps = append(steps, lanePart(f.c, i, 0, len(bl[i])))
	}
	for i := range cl {
		steps = append(steps, lanePart(f.c, i, len(bl[i]), len(cl[i])))
	}
	if n, err := play(t, pub, append(steps, step{fr: f.c.tail()})); err != nil || n != 40 {
		t.Fatalf("shards, then sidecar, then the later manifest: %d entries, %v; want 40", n, err)
	}

	al := f.a.lanes()
	stale := append([]step(nil), restart...)
	for k := 0; k < 2; k++ {
		stale = append(stale, lanePart(f.a, k, 0, len(al[k])/4))
	}
	stale = append(stale, lanePart(f.c, 2, 0, len(bl[2])), lanePart(f.a, 0, len(al[0])/4, len(al[0])), lanePart(f.a, 1, len(al[1])/4, len(al[1])))
	_, err := play(t, pub, stale)
	if !errors.Is(err, audit.ErrBadCounter) || !strings.Contains(err.Error(), "shard rolled back") {
		t.Fatalf("replaced files served after the set restart: %v, want a rolled-back shard at commit time", err)
	}
}
