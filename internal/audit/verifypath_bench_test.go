package audit

import (
	"context"
	"testing"
)

// BenchmarkVerifyPath sizes the auditor's cold scan without the harness: a
// two-shard set of synthetic logs in batches of 16 entries, with manifests
// attesting both shards mid-log and at their ends, verified by VerifyPath as
// libseal.Verify does, under a callback that reads no entries. Its bytes are
// the shard files'.
//
//	go test -run '^$' -bench BenchmarkVerifyPath ./internal/audit/
func BenchmarkVerifyPath(b *testing.B) {
	const entries, batchMax = 40000, 16
	key := testKey(b)
	imgs := [][]byte{synthLog(b, key, entries, batchMax), synthLog(b, key, entries, batchMax)}
	at := func(i int) []ShardState { return []ShardState{attestedAt(b, imgs[0], i), attestedAt(b, imgs[1], i)} }
	dir := synthShards(b, key, imgs, at(entries/batchMax/2), at(entries/batchMax-1))
	opts := StreamOptions{
		VerifyOptions: VerifyOptions{Pub: &key.PublicKey},
		OnSegment:     func(SegmentInfo) error { return nil },
	}
	b.SetBytes(int64(len(imgs[0]) + len(imgs[1])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := VerifyPath(context.Background(), dir, opts)
		if err != nil || rep.TotalEntries != 2*entries || rep.Manifests != 3 {
			b.Fatalf("%+v, %v", rep, err)
		}
	}
	b.ReportMetric(float64(2*entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}
