package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one noisy maximum, not a percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and whether it
// may be reported: at least minBeyond samples must rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	return sorted(xs)[rank-1], beyond >= minBeyond
}

// summary renders the minimum, median and maximum of xs for the log.
func summary(xs []float64) string {
	s := sorted(xs)
	return fmt.Sprintf("min %.4f median %.4f max %.4f", s[0], median(s), s[len(s)-1])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Metric names and units follow the benchmark file's grammar: a name
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'; a unit has at most 16 letters, digits, '_', '/', '%', '.'
// and '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkName(name, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q breaks the name grammar", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q breaks the unit grammar", name, unit)
	}
	return nil
}
