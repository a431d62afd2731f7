// Micro-benchmarks for what no libseal-bench experiment covers. The paper's
// tables and figures (§6) and the post-paper sweeps are experiments of
// cmd/libseal-bench (`-list`); ablations of this implementation's own design
// choices are in ablation_test.go.
//
// Run one:   go test -run '^$' -bench=BenchmarkTLSHandshake -benchtime=100x
package libseal_test

import (
	"testing"

	. "libseal"
	"libseal/internal/asyncall"
	"libseal/internal/bench"
	"libseal/internal/tlsterm"
)

// benchCost is the SGX cost model used by all benchmarks.
func benchCost() CostModel { return DefaultCostModel() }

// BenchmarkTLSHandshake isolates the secure-channel handshake cost, the
// dominant term of the non-persistent-connection experiments.
func BenchmarkTLSHandshake(b *testing.B) {
	for _, mode := range []bench.SealMode{bench.ModeNative, bench.ModeProcess} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			st, err := bench.NewStaticStack(bench.StackOptions{
				Mode: mode, Cost: benchCost(), CallMode: asyncall.ModeAsync,
			}, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raw, err := st.Dial()
				if err != nil {
					b.Fatal(err)
				}
				conn, err := tlsterm.Connect(raw, st.ClientConfig())
				if err != nil {
					b.Fatal(err)
				}
				conn.Close()
			}
		})
	}
}
