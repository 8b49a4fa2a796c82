package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p99 therefore needs at least 1000 samples.
const minBeyond = 10

// percentile returns the pct-th percentile of sorted samples by nearest
// rank, and an error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, pct int) (float64, error) {
	n := len(sorted)
	rank := (pct*n + 99) / 100 // ceil(pct/100 · n)
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d needs %d samples beyond it, and %d samples leave %d", pct, minBeyond, n, n-rank)
	}
	return sorted[rank-1], nil
}

// median returns the median of xs, or 0 for no samples. It does not
// modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
