package enclave

import (
	"crypto/rand"
	"encoding/binary"

	"libseal/internal/simtime"
)

// nvram is the hardware counter's modelled write time.
var nvram = simtime.NewLayer("enclave.counter")

// hardwareCounter is one SGX platform monotonic counter. It survives enclave
// restarts (it lives on the Platform) and is deliberately slow to increment,
// reproducing why LibSEAL replaces it with the ROTE protocol (§5.1).
type hardwareCounter struct {
	owner Measurement
	value uint64
}

// CreateCounter provisions a new platform monotonic counter owned by the
// calling enclave's measurement and returns its id.
func (c *Ctx) CreateCounter() (uint64, error) {
	c.check()
	e := c.e
	p := e.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextCounter++
	id := p.nextCounter
	p.counters[id] = &hardwareCounter{owner: e.meas}
	return id, nil
}

// IncrementCounter bumps the counter and returns the new value. It pays the
// hardware counter latency from the cost model; real SGX counters take on
// the order of 100 ms and have limited write endurance.
func (c *Ctx) IncrementCounter(id uint64) (uint64, error) {
	c.check()
	e := c.e
	nvram.Sleep(e.cost.HardwareCounterLatency) // NVRAM write: the CPU is not busy, so wait, not burn.
	p := e.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	ctr, ok := p.counters[id]
	if !ok || ctr.owner != e.meas {
		return 0, ErrUnknownCounter
	}
	ctr.value++
	return ctr.value, nil
}

// ReadCounter returns the counter's current value.
func (c *Ctx) ReadCounter(id uint64) (uint64, error) {
	c.check()
	e := c.e
	p := e.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	ctr, ok := p.counters[id]
	if !ok || ctr.owner != e.meas {
		return 0, ErrUnknownCounter
	}
	return ctr.value, nil
}

// Random fills buf with cryptographically secure random bytes generated
// inside the enclave (RDRAND), avoiding an ocall to the host RNG — one of
// the transition-reduction optimisations of §4.2.
func (c *Ctx) Random(buf []byte) error {
	c.check()
	_, err := rand.Read(buf)
	return err
}

// RandomUint64 returns an in-enclave random 64-bit value.
func (c *Ctx) RandomUint64() (uint64, error) {
	var b [8]byte
	if err := c.Random(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
