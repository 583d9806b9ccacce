package main

import (
	"math"
	"os"
	"strings"
	"time"
)

// calibrate times a fixed single-threaded splitmix64 loop, the same loop as
// the repository's BenchmarkCalibration, copied rather than imported so it
// shares no code with what is measured. It returns the minimum of nine runs
// in milliseconds: neighbour noise only ever slows the loop, so the minimum
// is the stable estimate of machine speed.
func calibrate() float64 {
	best := math.Inf(1)
	for range 9 {
		start := time.Now()
		var acc uint64
		for j := uint64(0); j < 1<<22; j++ {
			x := j + 0x9e3779b97f4a7c15
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			acc ^= x ^ (x >> 31)
		}
		if d := float64(time.Since(start)) / 1e6; d < best {
			best = d
		}
		if acc == 42 {
			panic("unreachable; keeps the loop from being optimized away")
		}
	}
	return best
}

// noisyCalibration is the relative change between the calibration samples
// taken before and after the runs beyond which the run is flagged as
// disturbed by a noisy neighbour.
const noisyCalibration = 0.10

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
