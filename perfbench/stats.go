package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method: quantile(0)
// is the minimum, quantile(1) the maximum). It panics on an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("quantile of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// percentileLadder lists the percentiles a timing may be reported at, from
// the median upward.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// topPercentile returns the highest percentile on the ladder that still has
// at least ten of n samples beyond it, or 0 when even the median has fewer
// (n < 20): a tail percentile resting on fewer samples is noise.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			top = p
		}
	}
	return top
}

// metricName is the grammar every metric and workload name must satisfy.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may appear as a metric or workload name.
func validName(name string) bool { return metricName.MatchString(name) }

// tally counts verified outputs. An output that fails its check is a failed
// operation: it is counted here and never contributes a timing.
type tally struct {
	attempted, failed int
	reasons           []string
}

// check records one verified output; ok=false counts it as failed with the
// formatted reason.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	return ok
}

// correct reports whether every attempted output verified.
func (t *tally) correct() bool { return t.attempted > 0 && t.failed == 0 }

// perInput is the mean over the reference inputs of the median of f over
// each input's ops: one op's cost averaged over the inputs, with outlying
// ops of each input left out by its median. It panics on no ops.
func perInput(ops []sample, f func(sample) float64) float64 {
	byInput := map[int64][]float64{}
	var inputs []int64
	for _, s := range ops {
		if _, ok := byInput[s.input]; !ok {
			inputs = append(inputs, s.input)
		}
		byInput[s.input] = append(byInput[s.input], f(s))
	}
	if len(inputs) == 0 {
		panic("perInput of no ops")
	}
	sum := 0.0
	for _, in := range inputs {
		sum += median(byInput[in])
	}
	return sum / float64(len(inputs))
}
