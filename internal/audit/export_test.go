package audit

import "libseal/internal/sqldb"

// Counter returns the last counter value anchored into the persisted log.
// Runs outside the enclave.
func (l *Log) Counter() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counter
}

// DB exposes the underlying relational database for invariant queries.
func (l *Log) DB() *sqldb.DB { return l.db }

// ChainHash returns the current durable head of the hash chain (zero in
// memory mode, which keeps no file). Runs outside the enclave.
func (l *Log) ChainHash() [32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain
}

// Query runs an invariant query against the log.
func (l *Log) Query(sql string, args ...any) (*sqldb.Result, error) {
	return l.db.Query(sql, args...)
}

// Exec runs arbitrary SQL against the log database (used for state tables
// maintained by stateful SSMs).
func (l *Log) Exec(sql string, args ...any) (int, error) {
	return l.db.Exec(sql, args...)
}

// Shard exposes shard k (tests and status reporting).
func (s *ShardedLog) Shard(k int) *Log { return s.shards[k] }

// Exec runs arbitrary SQL against the shared database.
func (s *ShardedLog) Exec(sql string, args ...any) (int, error) {
	return s.db.Exec(sql, args...)
}

// Epoch returns the epoch of the last durably written manifest (0 before
// the first).
func (s *ShardedLog) Epoch() uint64 {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	return s.epoch
}

// Buffered is the number of received-but-unframed bytes (a partial record
// mid-flight).
func (v *IncrementalVerifier) Buffered() int { return len(v.in.buf) }

func (v *IncrementalVerifier) Counter() uint64 { return v.led.cur.counter }

// recordSize is the on-disk footprint of one record.
func recordSize(payload []byte) int64 { return 5 + int64(len(payload)) }
