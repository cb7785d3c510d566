package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// calReferenceMs is the calibration kernel's typical time on the reference
// host (2-core Intel Xeon VM at 2.1 GHz, Go 1.24). End-to-end times are
// reported scaled to that host's speed: on a host, or in a moment, where
// the kernel takes twice as long, a run reports half its raw times.
const calReferenceMs = 3.0

// calibrator is fixed work, independent of the code under test, whose time
// tracks how fast the host runs at the moment. A shared host changes speed
// by tens of percent, within a second and over minutes, more than the
// benchmark's bounds; timing the kernel between short slices of the closed
// loop and dividing by it removes most of that drift.
type calibrator struct {
	core []uint64 // fits in a core's private caches
	// mem is larger than any last-level cache share. It is mapped outside
	// the Go heap, so it does not raise the collector's heap goal and
	// change how often the workload is collected.
	mem  []byte
	sink uint64
}

const (
	calCoreWords = 1 << 13 // 64 KiB
	calMemBytes  = 1 << 25 // 32 MiB
)

// newCalibrator maps the tables and runs the kernel once, so that the first
// timed pass does not pay for faulting the pages in. Call close when done.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calMemBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration table: %w", err)
	}
	c := &calibrator{core: make([]uint64, calCoreWords), mem: mem}
	c.run()
	return c, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

// run times one pass of the kernel and returns the geometric mean of its
// two parts: random updates of a table in the core's caches, which
// follow the core's speed, and of a table in memory, which follow the
// memory system's. It first finishes any garbage collection the workload
// started, so that collection does not compete with the kernel and make
// the host look slower when the code allocates more.
func (c *calibrator) run() time.Duration {
	runtime.GC()
	x := uint64(0x2545F4914F6CDD1D)
	start := time.Now()
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.core[x&(calCoreWords-1)] += x
	}
	mid := time.Now()
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.mem[x&(calMemBytes-1)] += byte(x)
	}
	end := time.Now()
	c.sink += x
	return time.Duration(math.Sqrt(float64(mid.Sub(start)) * float64(end.Sub(mid))))
}
