package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host the CPU time a fixed amount of work takes drifts by
// tens of percent over minutes, and every time the benchmark measures
// drifts with it. The host probe times a fixed loop that calls no bolt
// code, in the probing thread's own CPU time (so waiting for a core does
// not count), every 20 ms while traffic runs, and reports the median.
// Times are reported at the reference host's speed (see speedFactor).
// Over two 10-seed sweeps of every workload the probe correlated with
// measured cpu_us_per_row at 0.96 to 0.99 per workload. Load on the
// other core did not slow it measurably: README.md ("Host speed") has
// the data.

// refProbeUs is the probe's median over 100 runs on the reference host
// (a 2-vCPU VM, go1.24; a 10-seed sweep and two 5-seed sets of every
// workload): at this reading, reported times equal measured times.
const refProbeUs = 44.5

// hostSlope is how much faster than the probe's the serving path's times
// grow on a slower host. Fitted on the reference host only, between
// periods in which the probe read 42–50 µs and 55–75 µs: with 1.3 the
// scaled median cpu_us_per_row of every workload moved by at most 10%
// between them, where 1.6, the median slope within the first period,
// moved mixed by 16%. The kernels alone track the probe one for one; the
// syscalls and wake-ups around them do not. Another host needs its own
// fit.
const hostSlope = 1.3

// speedFactor is what a time measured while the probe read probeUs is
// multiplied by to give its value at the reference host's speed.
func speedFactor(probeUs float64) float64 { return math.Pow(refProbeUs/probeUs, hostSlope) }

var probeSink uint64

// probeHost samples until stop closes and returns the median in µs.
func probeHost(stop <-chan struct{}) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]uint64, 1<<13) // 64 KiB: stays in a core's L2
	var samples []float64
	for {
		start := threadCPU()
		x := uint64(1)
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			buf[x>>51] += x
		}
		probeSink += x
		samples = append(samples, float64(threadCPU()-start)/1e3)
		select {
		case <-stop:
			return quantile(samples, 0.5)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return ts.Nano()
}
