package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (splitmix64 core). Every stochastic element of an experiment draws from
// an explicitly seeded Rand so runs are reproducible; we avoid the global
// math/rand state on purpose.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9E3779B97F4A7C15}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed duration with the given mean.
// It is the inter-arrival distribution of a Poisson process.
func (r *Rand) Exp(mean Duration) Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := Duration(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Normal returns a normally distributed float with the given mean and
// standard deviation (Box-Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Fork derives an independent generator; useful to give each workload
// source its own stream so adding a source does not perturb the others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64())
}

// State returns the generator's internal state for snapshotting. A
// generator with the same state produces the same stream from here on.
func (r *Rand) State() uint64 { return r.state }

// SetState overwrites the generator's internal state (snapshot restore).
func (r *Rand) SetState(s uint64) { r.state = s }
