package main

import (
	"math"
	"time"
)

// calib is a fixed amount of host work that shares no code with the
// simulator: binary-heap pushes and pops, a pointer chase through a
// table the size of a core's L2 cache, and updates to a hash table of
// fixed keys, the kinds of work the simulator's host time goes to. Its
// tables are static arrays, so it adds nothing to the heap that
// live_mem_mb measures and leaves the garbage collector's pacing alone.
type calib struct {
	heap []uint64
	x    uint64 // xorshift state
	pos  uint32
	sink uint64
}

var (
	calHeapMem [calHeap + 1]uint64
	calNext    [calTable]uint32
	calHash    [2 * calKeys]uint64 // (key+1)<<32 | value, open addressing
)

const (
	calHeap  = 1 << 10
	calTable = 1 << 16 // 256 KiB of uint32
	calKeys  = 1 << 11
	// A slice of calibration work is calSubs parts of calIters
	// iterations, about 60 us each on a 2-CPU x86 VM.
	calSubs  = 4
	calIters = 1000
)

func newCalib() *calib {
	c := &calib{heap: calHeapMem[:0], x: 0x9e3779b97f4a7c15}
	for i := range calNext {
		calNext[i] = uint32(i)
	}
	// Sattolo's shuffle makes the table one cycle through every slot.
	for i := len(calNext) - 1; i > 0; i-- {
		j := int(c.rand() % uint64(i))
		calNext[i], calNext[j] = calNext[j], calNext[i]
	}
	for i := 0; i < calHeap; i++ {
		c.push(c.rand() >> 1)
	}
	clear(calHash[:])
	for k := uint64(0); k < calKeys; k++ {
		*c.slot(uint32(k)) = (k + 1) << 32
	}
	return c
}

func (c *calib) rand() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

func (c *calib) push(v uint64) {
	h := append(c.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calib) pop() uint64 {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r := l + 1; r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	c.heap = h
	return top
}

// slot returns key k's entry in calHash, probing linearly from its
// multiplicative hash. The table is half full, so probes are short.
func (c *calib) slot(k uint32) *uint64 {
	for i := uint32(k*0x9e3779b1) >> (32 - 12); ; i = (i + 1) % (2 * calKeys) {
		if e := &calHash[i]; *e == 0 || uint32(*e>>32) == k+1 {
			return e
		}
	}
}

// slice runs one slice of work, calSubs parts of calIters iterations,
// and returns the host time in ns of its fastest part. It first reads
// every cache line of its tables, untimed, so the time does not depend
// on how much of the cache the simulator's last segment evicted. The
// fastest part is the one the garbage collector's background worker,
// which shares the one P, did not interrupt; a slower host slows every
// part alike.
func (c *calib) slice() int64 {
	for i := 0; i < len(calNext); i += 16 {
		c.sink += uint64(calNext[i])
	}
	for i := 0; i < len(calHash); i += 8 {
		c.sink += calHash[i]
	}
	for i := 0; i < len(c.heap); i += 8 {
		c.sink += c.heap[i]
	}
	best := int64(math.MaxInt64)
	for range calSubs {
		t0 := time.Now()
		for i := 0; i < calIters; i++ {
			// Reinsert the earliest key later, as an event queue would.
			c.push(c.pop() + c.rand()%1024)
			for j := 0; j < 8; j++ {
				c.pos = calNext[c.pos]
			}
			e := c.slot(uint32(c.rand()) % calKeys)
			*e = *e&^0xffffffff | uint64(uint32(*e)+c.pos)
		}
		best = min(best, int64(time.Since(t0)))
	}
	c.sink += uint64(c.pos)
	return best
}
