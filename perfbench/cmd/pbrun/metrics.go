package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one named metric; the tables below are the ones
// BENCHMARK.json lists, and selftest_test.go keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what an untraced run reports, for every workload. On the
// open-loop workloads the nodes already use nearly every core at the
// offered rate, so goodput_tps is the offered rate and cpu_us_per_tx
// the cores over it; what the program sets there is how many slots that
// CPU buys. Node CPU per committed block shows that, but its run-to-run
// spread reached 0.37 (IQR over median) on crash-c7, above the largest
// bound, so it is printed and reported as trace.cpu_ms_per_block, not
// gated. Commit latency (p50/p99 from the scheduled send) is printed in the report
// lines and as trace.p50_ms / trace.p99_ms, but not gated: on the
// open-loop workloads its run-to-run spread (IQR over median of p50 0.12
// to 0.24 over ten seeds on a 2-core x86-64 VM, driven by fsync and CPU
// contention setting the slot rate) comes too close to the largest
// bound a gate may have.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_tps", "1/s", "higher", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

// result is one run's verdict and metrics.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	metrics    map[string]float64
	defs       []metricDef
	notes      []string
	violations []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output builds the final JSON object; it fails if a listed metric was
// not measured, so no metric can go missing silently.
func (r *result) output() (map[string]any, error) {
	ms := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	}, nil
}

// print writes the human-readable notes, any violations, and the JSON
// object as the last line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, v := range r.violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	obj, err := r.output()
	if err != nil {
		return err
	}
	b, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio divides, reporting 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
