package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile interpolates the q-quantile (0..1) of samples without
// modifying them; 0 for an empty slice.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample is the allocation and GC state at one instant.
type memSample struct {
	allocBytes uint64
	gcCycles   uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}
