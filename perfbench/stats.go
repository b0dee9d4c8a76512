package main

import (
	"slices"
	"syscall"
	"time"
)

// quantiles returns the exact nearest-rank quantiles qs (each in (0, 1])
// of samples: the smallest sample x such that at least q·n samples are
// ≤ x. It sorts samples in place. An empty sample yields zeros.
func quantiles(samples []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(samples) == 0 {
		return out
	}
	slices.Sort(samples)
	n := len(samples)
	for i, q := range qs {
		// rank = ceil(q·n), computed in integers where q·n is exact so a
		// float rounding error cannot shift the pick by one sample.
		rank := int(q * float64(n))
		if float64(rank) < q*float64(n) {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		out[i] = samples[rank-1]
	}
	return out
}

// quantileOf returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between order statistics, leaving xs unchanged. An empty xs
// yields 0.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// betterQuartile is the quartile of xs on the better side: the 75th
// percentile when higher is better, the 25th when lower is. Interference
// from outside the process — another tenant's burst, the hypervisor
// descheduling a vCPU — only ever makes a step slower, so the better
// quartile follows the program and shrugs off up to three quarters of
// disturbed steps, where a median follows the disturbance past one half.
func betterQuartile(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return quantileOf(xs, 0.75)
	}
	return quantileOf(xs, 0.25)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
