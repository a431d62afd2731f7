// Ablation benchmarks for this implementation's own design choices (beyond
// the paper's tables and figures): the correlated-subquery result cache in
// the SQL engine and the ROTE group's fault-tolerance parameter.
package libseal_test

import (
	"fmt"
	"testing"
	"time"

	"libseal/internal/bench"
	"libseal/internal/rote"
	"libseal/internal/sqldb"
	"libseal/internal/ssm/gitssm"
)

// BenchmarkAblation_SubqueryCache measures the Git soundness+completeness
// checks with and without the engine's correlated-subquery result cache
// (the substitute for SQLite's automatic indexes; see
// internal/sqldb/subqcache.go). The cache collapses the O(rows^3) blow-up
// of the paper's nested-MAX queries.
func BenchmarkAblation_SubqueryCache(b *testing.B) {
	build := func() *sqldb.DB {
		filler, err := bench.NewGitFiller(gitssm.New())
		if err != nil {
			b.Fatal(err)
		}
		if err := filler.Fill(150); err != nil {
			b.Fatal(err)
		}
		return filler.DB
	}
	for _, cached := range []bool{true, false} {
		cached := cached
		name := "cached"
		if !cached {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			db := build()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for _, q := range []string{gitssm.SoundnessSQL, gitssm.CompletenessSQL} {
					if _, err := sqldb.QueryWithCache(db, q, cached); err != nil {
						b.Fatal(err)
					}
				}
				elapsed = time.Since(start)
			}
			b.ReportMetric(float64(elapsed.Milliseconds()), "ms/check")
		})
	}
}

// BenchmarkAblation_ROTEFaultTolerance sweeps the counter group's f: higher
// fault tolerance means more nodes (3f+1) and a larger quorum (2f+1) per
// increment.
func BenchmarkAblation_ROTEFaultTolerance(b *testing.B) {
	for _, f := range []int{0, 1, 2, 3} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			group, err := rote.NewGroup(f, 0)
			if err != nil {
				b.Fatal(err)
			}
			const increments = 200
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for j := 0; j < increments; j++ {
					if _, err := group.Increment("bench"); err != nil {
						b.Fatal(err)
					}
				}
				elapsed = time.Since(start)
			}
			b.ReportMetric(float64(elapsed.Microseconds())/increments, "µs/increment")
		})
	}
}
