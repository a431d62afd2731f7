package enclave

import (
	"time"
)

// CostModel describes the performance characteristics of the simulated SGX
// platform. The defaults are calibrated against the figures published in the
// LibSEAL paper (§2.5, §4.2, §6.8): an enclave transition costs 8,400 CPU
// cycles with a single thread and degrades roughly linearly to 170,000 cycles
// with 48 concurrent threads; and in-enclave code pays an extra factor on
// cache misses, which we approximate as a per-byte processing surcharge.
// EPC paging is not modelled.
//
// All costs are charged as real CPU time (calibrated busy-spinning) so that
// benchmarks measure genuine wall-clock behaviour instead of replaying
// hard-coded numbers.
type CostModel struct {
	// ClockGHz is the reference CPU frequency used to convert cycles to
	// wall-clock time. The paper's testbed is a Xeon E3-1280 v5 at 3.70 GHz.
	ClockGHz float64

	// TransitionCycles is the base cost of one enclave crossing
	// (ecall enter, ecall exit, ocall exit or ocall re-enter) when a single
	// thread uses the enclave.
	TransitionCycles int64

	// TransitionContention is the additional fraction of TransitionCycles
	// charged per extra concurrently-transitioning thread. The paper reports
	// a 20x degradation from 1 to 48 threads, i.e. roughly 0.40 per thread.
	TransitionContention float64

	// InEnclaveCyclesPerByte approximates the memory-encryption-engine
	// overhead for touching data inside the enclave (cache-miss
	// encrypt/decrypt penalty). Charged by ChargeData.
	InEnclaveCyclesPerByte float64

	// AsyncCallCycles is the cost of handing a call over via the shared
	// async-call slot array instead of a hardware transition: one cache-line
	// round trip plus scheduler wakeup, far below TransitionCycles.
	AsyncCallCycles int64
}

// DefaultCostModel returns the cost model calibrated against the paper's
// testbed (SGX v1, Xeon E3-1280 v5 @ 3.70 GHz).
func DefaultCostModel() CostModel {
	return CostModel{
		ClockGHz:               3.70,
		TransitionCycles:       8400,
		TransitionContention:   0.40,
		InEnclaveCyclesPerByte: 0.30,
		AsyncCallCycles:        600,
	}
}

// ZeroCostModel returns a model in which every operation is free. Unit tests
// use it so that functional behaviour can be exercised at full speed.
func ZeroCostModel() CostModel {
	return CostModel{ClockGHz: 3.70}
}

// cyclesToDuration converts a cycle count into wall-clock time under the
// model's reference clock.
func (m CostModel) cyclesToDuration(cycles float64) time.Duration {
	if cycles <= 0 || m.ClockGHz <= 0 {
		return 0
	}
	return time.Duration(cycles / m.ClockGHz)
}

// TransitionCost returns the wall-clock cost of a single enclave crossing
// when `threads` threads are concurrently performing transitions.
func (m CostModel) TransitionCost(threads int) time.Duration {
	if threads < 1 {
		threads = 1
	}
	cycles := float64(m.TransitionCycles) * (1 + m.TransitionContention*float64(threads-1))
	return m.cyclesToDuration(cycles)
}

// AsyncCallCost returns the wall-clock cost of one asynchronous call handoff.
func (m CostModel) AsyncCallCost() time.Duration {
	return m.cyclesToDuration(float64(m.AsyncCallCycles))
}

// DataCost returns the in-enclave processing surcharge for touching `bytes`
// bytes of protected memory.
func (m CostModel) DataCost(bytes int) time.Duration {
	return m.cyclesToDuration(float64(bytes) * m.InEnclaveCyclesPerByte)
}
