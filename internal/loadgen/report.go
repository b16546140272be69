package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Report is one of the repo's checked-in benchmark trajectory files
// (BENCH_tps.json / BENCH_latency.json): named entries, merged by name
// across runs so different machines and modes accumulate side by side.
type Report struct {
	Metric  string  `json:"metric"`
	Entries []Entry `json:"entries"`
}

// Entry is one recorded measurement.
type Entry struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Committee int     `json:"committee"`
	Cores     int     `json:"cores"`
	Offered   int     `json:"offered"`
	Committed int     `json:"committed"`
	Value     float64 `json:"value,omitempty"`  // committed TPS (tps metric)
	P50Ms     float64 `json:"p50_ms,omitempty"` // latency metric
	P99Ms     float64 `json:"p99_ms,omitempty"` // latency metric
	// Attack-run extras (omitted for plain runs): flooder identities,
	// what they offered, and what the overload armor turned away.
	Attackers       int    `json:"attackers,omitempty"`
	AttackerOffered int    `json:"attacker_offered,omitempty"`
	Rejected        uint64 `json:"rejected,omitempty"`
	Shed            uint64 `json:"shed,omitempty"`
	EvictedShed     uint64 `json:"evicted_shed,omitempty"`
	When            string `json:"when,omitempty"`
}

// Metric names for the two trajectory files.
const (
	MetricTPS     = "committed_tps"
	MetricLatency = "commit_latency_ms"
)

// TPSEntry projects a result into the TPS trajectory.
func (r Result) TPSEntry() Entry {
	e := Entry{
		Name: r.Name, Mode: r.Mode, Committee: r.Committee, Cores: r.Cores,
		Offered: r.Offered, Committed: r.Committed,
		Value: round2(r.TPS), When: time.Now().UTC().Format(time.RFC3339),
	}
	r.attackExtras(&e)
	return e
}

// LatencyEntry projects a result into the latency trajectory.
func (r Result) LatencyEntry() Entry {
	e := Entry{
		Name: r.Name, Mode: r.Mode, Committee: r.Committee, Cores: r.Cores,
		Offered: r.Offered, Committed: r.Committed,
		P50Ms: round2(r.P50Ms), P99Ms: round2(r.P99Ms), When: time.Now().UTC().Format(time.RFC3339),
	}
	r.attackExtras(&e)
	return e
}

func (r Result) attackExtras(e *Entry) {
	e.Attackers = r.Attackers
	e.AttackerOffered = r.AttackerOffered
	e.Rejected = r.Rejected
	e.Shed = r.Shed
	e.EvictedShed = r.EvictedShed
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// LoadReport reads a trajectory file; a missing file yields an empty
// report with the given metric, so first runs bootstrap cleanly.
func LoadReport(path, metric string) (*Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Report{Metric: metric}, nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if r.Metric == "" {
		r.Metric = metric
	}
	return &r, nil
}

// Upsert replaces the entry with the same name, or appends.
func (r *Report) Upsert(e Entry) {
	for i := range r.Entries {
		if r.Entries[i].Name == e.Name {
			r.Entries[i] = e
			return
		}
	}
	r.Entries = append(r.Entries, e)
}

// Find returns the named entry, or nil.
func (r *Report) Find(name string) *Entry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// Save writes the report with stable ordering (sorted by name) so
// checked-in files diff cleanly.
func (r *Report) Save(path string) error {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare checks fresh entries against a recorded baseline with a
// relative tolerance, returning one message per regression. Only
// entries present in both reports are compared — a fresh entry with no
// baseline is new coverage, not a regression. TPS regresses downward;
// latency (p50 and p99) regresses upward.
func Compare(baseline, fresh *Report, tolerance float64) []string {
	var regressions []string
	for _, f := range fresh.Entries {
		b := baseline.Find(f.Name)
		if b == nil {
			continue
		}
		switch baseline.Metric {
		case MetricTPS:
			if b.Value > 0 && f.Value < b.Value*(1-tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: committed TPS %.2f is below baseline %.2f by more than %.0f%%",
						f.Name, f.Value, b.Value, tolerance*100))
			}
		case MetricLatency:
			if b.P50Ms > 0 && f.P50Ms > b.P50Ms*(1+tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: p50 latency %.2fms exceeds baseline %.2fms by more than %.0f%%",
						f.Name, f.P50Ms, b.P50Ms, tolerance*100))
			}
			if b.P99Ms > 0 && f.P99Ms > b.P99Ms*(1+tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: p99 latency %.2fms exceeds baseline %.2fms by more than %.0f%%",
						f.Name, f.P99Ms, b.P99Ms, tolerance*100))
			}
		}
	}
	return regressions
}
