package sim

// Resource models a serialized, FIFO hardware unit: a NIC processing
// unit, a PCIe DMA engine, a link direction, a CPU core. Work is granted
// in request order; each grant occupies the resource for a caller-chosen
// duration. Because the simulation is single-threaded, acquisition is
// plain arithmetic over the resource's next-free time.
type Resource struct {
	eng      *Engine
	name     string
	nextFree Time
	busy     Time // total occupied time, for utilization accounting
	grants   uint64
}

// NewResource returns a named serialized resource on the given engine.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's name (used in bottleneck reports).
func (r *Resource) Name() string { return r.name }

// Acquire reserves the resource for d nanoseconds starting no earlier
// than now, in FIFO order behind earlier acquisitions. It returns the
// start and end times of the reservation; the caller schedules its own
// continuation (typically at end).
func (r *Resource) Acquire(d Time) (start, end Time) {
	start = r.eng.Now()
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + d
	r.nextFree = end
	r.busy += d
	r.grants++
	return start, end
}

// AcquireAt is Acquire for work that becomes ready at a known future
// time ready (e.g. a request that arrives after a link delay).
func (r *Resource) AcquireAt(ready Time, d Time) (start, end Time) {
	start = ready
	if now := r.eng.Now(); start < now {
		start = now
	}
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + d
	r.nextFree = end
	r.busy += d
	r.grants++
	return start, end
}

// Busy returns the total time the resource has been occupied.
func (r *Resource) Busy() Time { return r.busy }

// Grants returns the number of acquisitions served.
func (r *Resource) Grants() uint64 { return r.grants }

// Utilization reports busy time as a fraction of the window [0, until].
func (r *Resource) Utilization(until Time) float64 {
	if until <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(until)
	if u > 1 {
		u = 1
	}
	return u
}

// NextFree reports when the resource next becomes idle.
func (r *Resource) NextFree() Time { return r.nextFree }

// Bandwidth models a shared pipe (an IB port, a PCIe root complex) where
// occupancy is proportional to bytes moved. It is a Resource with a
// byte-rate converter.
type Bandwidth struct {
	Resource
	bytesPerSec float64
}

// NewBandwidth returns a pipe moving bytesPerSec bytes per virtual second.
func NewBandwidth(eng *Engine, name string, bytesPerSec float64) *Bandwidth {
	return &Bandwidth{Resource: Resource{eng: eng, name: name}, bytesPerSec: bytesPerSec}
}

// Duration converts a transfer size to pipe occupancy time.
func (b *Bandwidth) Duration(bytes int) Time {
	if bytes <= 0 {
		return 0
	}
	return Time(float64(bytes) / b.bytesPerSec * 1e9)
}

// Transfer reserves the pipe for a transfer of the given size and
// returns when the last byte clears the pipe.
func (b *Bandwidth) Transfer(bytes int) (start, end Time) {
	return b.Acquire(b.Duration(bytes))
}

// TransferAt reserves the pipe for a transfer that becomes ready at the
// given future time.
func (b *Bandwidth) TransferAt(ready Time, bytes int) (start, end Time) {
	return b.AcquireAt(ready, b.Duration(bytes))
}

// RateLimiter is a token-bucket limiter in virtual time, matching the
// per-WQ rate limiting ConnectX NICs expose (ibv_modify_qp_rate_limit),
// which the paper relies on for isolation of misbehaving offloads.
type RateLimiter struct {
	eng        *Engine
	opsPerSec  float64
	burst      float64
	tokens     float64
	lastRefill Time
}

// NewRateLimiter returns a limiter admitting opsPerSec operations with
// the given burst size. A nil limiter admits everything immediately.
func NewRateLimiter(eng *Engine, opsPerSec float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &RateLimiter{eng: eng, opsPerSec: opsPerSec, burst: float64(burst), tokens: float64(burst), lastRefill: eng.Now()}
}

func (rl *RateLimiter) refill(now Time) {
	if now <= rl.lastRefill {
		return
	}
	rl.tokens += float64(now-rl.lastRefill) / 1e9 * rl.opsPerSec
	if rl.tokens > rl.burst {
		rl.tokens = rl.burst
	}
	rl.lastRefill = now
}

// Admit consumes one token and returns the earliest time the operation
// may proceed (now if a token is available, otherwise the time the next
// token accrues). A nil receiver admits immediately.
func (rl *RateLimiter) Admit() Time {
	if rl == nil {
		return 0
	}
	now := rl.eng.Now()
	rl.refill(now)
	if rl.tokens >= 1 {
		rl.tokens--
		return now
	}
	deficit := 1 - rl.tokens
	wait := Time(deficit / rl.opsPerSec * 1e9)
	rl.tokens--
	rl.lastRefill = now
	return now + wait
}
