package main

import (
	"math"
	"time"
)

// The development host, a 2-vCPU virtual machine, changes speed by up to
// 2x for stretches of several seconds while other tenants contend for its
// physical cores; the thread CPU time rises with the wall time, so this is
// slower execution, not descheduling. A median inside one run cannot
// remove a slowdown that covers the whole run. So every timing the
// benchmark reports is the wall time scaled by how fast the host ran at
// that moment: refNominal over the time of a fixed reference kernel run
// just before and just after the timed stretch. The result is the time the
// work would have taken with the host at the speed at which the kernel
// takes refNominal, its uncontended time on the development host. The
// tables print the raw wall-clock medians beside the scaled ones.

const (
	// refIters sizes the reference kernel at about 0.15 ms.
	refIters = 20000
	// refNominal is the kernel's time on the development host when
	// nothing contends for its cores (the fast end of its distribution).
	refNominal = 150 * time.Microsecond
)

var refSink float64

// refTime returns the fastest of three timed runs of the reference
// kernel: scalar floating-point work like the channel sums'.
func refTime() time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := 0.0
		for i := 0; i < refIters; i++ {
			x += math.Sin(float64(i) * 1e-3)
		}
		d := time.Since(t0)
		refSink += x
		best = min(best, d)
	}
	return best
}

// speedClock times stretches of work between reference-kernel probes and
// scales each stretch by the host speed the probes around it saw. The
// probes themselves are never timed.
type speedClock struct {
	prev    time.Duration // kernel time at the last probe
	mark    time.Time     // start of the stretch being timed
	pending time.Duration // wall time since the last probe, not yet scaled
	scaled  float64       // scaled ns since the last take
	raw     time.Duration // wall time since the last take
}

func newSpeedClock() *speedClock { return &speedClock{prev: refTime()} }

func (c *speedClock) start() { c.mark = time.Now() }

func (c *speedClock) stop() { c.pending += time.Since(c.mark) }

// probe runs the kernel and scales the wall time timed since the
// previous probe by the mean of the two probes.
func (c *speedClock) probe() {
	next := refTime()
	c.scaled += float64(c.pending) * float64(refNominal) / (float64(c.prev+next) / 2)
	c.raw += c.pending
	c.pending, c.prev = 0, next
}

// checkpoint probes inside a long stretch, so that a change of host speed
// within it is tracked. Nil-safe.
func (c *speedClock) checkpoint() {
	if c == nil {
		return
	}
	c.stop()
	c.probe()
	c.start()
}

// take probes and returns the scaled (ns) and wall times timed since the
// last take.
func (c *speedClock) take() (scaledNs float64, raw time.Duration) {
	c.probe()
	scaledNs, raw = c.scaled, c.raw
	c.scaled, c.raw = 0, 0
	return scaledNs, raw
}
