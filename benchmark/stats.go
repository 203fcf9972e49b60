package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTailSamples is how many samples must lie beyond a percentile before the
// harness will report it: a p95 drawn from fewer is one or two outliers, not
// a tail.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics. It refuses a percentile that has
// fewer than minTailSamples samples beyond it on its thinner side, and an
// empty sample.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", p)
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g is outside (0,100)", p)
	}
	tail := math.Min(p, 100-p) / 100
	if p != 50 && float64(n)*tail < minTailSamples {
		return 0, fmt.Errorf("percentile p%g of %d samples has fewer than %d samples beyond it", p, n, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// median is percentile(xs, 50); it returns 0 for an empty sample so that a
// layer a workload never exercises reads as "no time spent, no samples".
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := percentile(xs, 50)
	return m
}

// highestTail returns the highest of p99, p95 and p90 the sample supports
// under the minTailSamples rule, and which one it was (0 when none is).
func highestTail(xs []float64) (value float64, p float64) {
	for _, p := range []float64{99, 95, 90} {
		if v, err := percentile(xs, p); err == nil {
			return v, p
		}
	}
	return 0, 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB is the process's resident-set high-water mark (VmHWM); 0 where
// procfs is unavailable.
func peakRSSMiB() float64 { return procStatusMiB("VmHWM:") }

// settledRSSMiB is the resident set after a forced collection has returned
// freed pages to the OS: what the process holds on to — databases, networks,
// snapshots, caches, experience — without the garbage that happened to be
// uncollected at the instant of reading, which makes the high-water mark of a
// 40 MiB process swing by a fifth from run to run.
func settledRSSMiB() float64 {
	debug.FreeOSMemory()
	return procStatusMiB("VmRSS:")
}

func procStatusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
