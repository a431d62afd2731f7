package audit

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"libseal/internal/sqldb"
)

// Multi-instance log merging (§3.2). When a service scales out behind
// multiple LibSEAL instances, each instance logs only the subset of client
// interactions it terminated. Before invariant checking, the partial logs
// must be merged into one relational view. Entries carry per-instance
// logical timestamps, so the merge re-times them on a global axis that
// preserves each instance's internal order — the invariants LibSEAL uses are
// robust to the cross-instance interleaving ambiguity the same way they are
// robust to service non-determinism (§3.2).

// PartialLog is one instance's verified contribution to a merge.
type PartialLog struct {
	// Instance identifies the LibSEAL instance (e.g. its enclave
	// measurement or host name).
	Instance string
	// Entries are the instance's verified log entries, in log order.
	Entries []*Entry
}

// timeColumn is the conventional first column of every LibSEAL relation.
const timeColumn = "time"

// Merge combines verified partial logs into a single database against which
// invariants can be checked. schema is the service module's DDL. Entries are
// interleaved across instances by their local logical time (ties broken by
// instance name for determinism) and re-timed on a dense global axis.
func Merge(schema string, parts []PartialLog) (*sqldb.DB, error) {
	db := sqldb.New()
	if _, err := db.Exec(schema); err != nil {
		return nil, fmt.Errorf("audit: merge schema: %w", err)
	}
	type timed struct {
		instance string
		local    int64
		entry    *Entry
	}
	var all []timed
	for _, p := range parts {
		for _, e := range p.Entries {
			if len(e.Values) == 0 {
				return nil, fmt.Errorf("audit: merge: entry %d of %s has no values", e.Seq, p.Instance)
			}
			if e.Values[0].Kind() != sqldb.KindInt {
				return nil, fmt.Errorf("audit: merge: entry %d of %s lacks an integer %s column",
					e.Seq, p.Instance, timeColumn)
			}
			all = append(all, timed{instance: p.Instance, local: e.Values[0].Int64(), entry: e})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].local != all[j].local {
			return all[i].local < all[j].local
		}
		return all[i].instance < all[j].instance
	})
	// Re-time on a dense global axis: entries that shared a local timestamp
	// within one instance (one request/response pair) must keep sharing the
	// global one, so invariants that group by time still see the pair.
	globalTime := int64(0)
	lastKey := ""
	for _, t := range all {
		key := fmt.Sprintf("%s/%d", t.instance, t.local)
		if key != lastKey {
			globalTime++
			lastKey = key
		}
		vals := make([]any, len(t.entry.Values))
		vals[0] = sqldb.Int(globalTime)
		for i := 1; i < len(t.entry.Values); i++ {
			vals[i] = t.entry.Values[i]
		}
		placeholders := ""
		for i := range vals {
			if i > 0 {
				placeholders += ","
			}
			placeholders += "?"
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", t.entry.Table, placeholders), vals...); err != nil {
			return nil, fmt.Errorf("audit: merge insert into %s: %w", t.entry.Table, err)
		}
	}
	return db, nil
}

// MergeVerified loads, verifies and merges persisted logs, one audit
// directory per instance. Each directory's log set — every shard and the
// manifest replay, as VerifyPath checks it — is verified with its
// instance's options before its entries, shard by shard, enter the merge.
func MergeVerified(schema string, dirs map[string]string, opts map[string]VerifyOptions) (*sqldb.DB, error) {
	var parts []PartialLog
	for instance, dir := range dirs {
		var mu sync.Mutex
		shards := map[int][]*Entry{}
		rep, err := VerifyPath(context.Background(), dir, StreamOptions{
			VerifyOptions: opts[instance],
			OnSegment: func(si SegmentInfo) error {
				entries := si.Entries()
				mu.Lock()
				defer mu.Unlock()
				shards[si.Shard] = append(shards[si.Shard], entries...)
				return nil
			},
		})
		if err != nil {
			return nil, fmt.Errorf("audit: merge: instance %s: %w", instance, err)
		}
		p := PartialLog{Instance: instance}
		for k := range rep.Shards {
			p.Entries = append(p.Entries, shards[k]...)
		}
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Instance < parts[j].Instance })
	return Merge(schema, parts)
}
