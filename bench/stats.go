package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// slice by linear interpolation between the two nearest ranks — the
// definition numpy and Python's statistics module use, so a reader can
// re-derive any reported number from the raw samples. Empty input
// yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of vs (mean of the middle two for an
// even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

const (
	lowerIsBetter = 0.25
	upperDecile   = 0.9
)

// quartile returns the given quantile of vs (lowerIsBetter or
// upperDecile: one on the good side) without reordering the caller's
// slice.
func quartile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, q)
}

// nsToSortedMs converts nanosecond samples to ascending milliseconds.
func nsToSortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(fields[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// memCounters is the slice of runtime.MemStats the benchmark diffs
// across rounds.
type memCounters struct {
	mallocs    uint64
	allocBytes uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}
