// Package harness drives the experiments of the paper's evaluation
// (Section V): consensus latency versus node count under sustained
// per-node load (Figures 3a, 3b, 4), communication cost for a single
// transaction (Figures 5a, 5b, 6), the headline comparison at 202
// nodes (Table III), the election-table illustration (Table II), the
// consensus-mechanism comparison (Table IV), and the analytic model
// cross-check of Section IV.
//
// All experiments run on the deterministic discrete-event simulator;
// under a fixed seed the emitted numbers are bit-for-bit reproducible.
package harness

import (
	"fmt"
	"io"
	"time"

	"gpbft"
	"gpbft/internal/stats"
)

// Config parameterizes an experiment sweep.
type Config struct {
	// Sizes are the node counts n on the x-axis.
	Sizes []int
	// Runs per (protocol, n) group — the paper uses ten.
	Runs int
	// Seed bases the per-run seeds.
	Seed int64

	// LoadWindow is how long each node keeps proposing transactions.
	LoadWindow time.Duration
	// PerNodeInterval is each node's proposal period ("Each node is
	// set to propose new transactions at a constant frequency").
	PerNodeInterval time.Duration
	// ReportEvery is the location-upload period of G-PBFT devices.
	ReportEvery time.Duration

	// EraPeriod / SwitchPeriod configure the G-PBFT era layer; the
	// switch period is the paper's measured ~0.25 s.
	EraPeriod    time.Duration
	SwitchPeriod time.Duration
	// MaxEndorsers caps the G-PBFT committee (paper: 40).
	MaxEndorsers int

	// Profile is the simulated hardware/network model.
	Profile gpbft.NetworkProfile

	// DrainCap bounds how long a run may take to drain its queue.
	DrainCap time.Duration
}

// Default is the full-fidelity sweep: the paper's 4..202 range with
// ten runs per group.
func Default() Config {
	return Config{
		Sizes:           []int{4, 22, 40, 58, 76, 94, 112, 130, 148, 166, 184, 202},
		Runs:            10,
		Seed:            1,
		LoadWindow:      20 * time.Second,
		PerNodeInterval: 3 * time.Second,
		ReportEvery:     2 * time.Second,
		EraPeriod:       10 * time.Second,
		SwitchPeriod:    250 * time.Millisecond,
		MaxEndorsers:    40,
		Profile:         gpbft.LANProfile(),
		DrainCap:        5 * time.Minute,
	}
}

// Quick is a reduced sweep for smoke tests and benchmarks.
func Quick() Config {
	c := Default()
	c.Sizes = []int{4, 22, 40, 76, 112}
	c.Runs = 3
	c.LoadWindow = 8 * time.Second
	c.DrainCap = 2 * time.Minute
	return c
}

// clusterOptions assembles cluster options for one run.
func (c *Config) clusterOptions(proto gpbft.Protocol, n int, seed int64) gpbft.Options {
	o := gpbft.DefaultOptions(proto, n)
	o.Seed = seed
	o.Network = c.Profile
	o.MaxEndorsers = c.MaxEndorsers
	o.EraPeriod = c.EraPeriod
	o.SwitchPeriod = c.SwitchPeriod
	// Devices qualify after staying put for three era periods; scaled
	// from the paper's 72 h to simulation time.
	o.QualificationWindow = 3 * c.EraPeriod
	o.ReportInterval = c.ReportEvery
	if proto == gpbft.GPBFT {
		o.ForceEraSwitch = true // the paper switches every T
	}
	return o
}

// MeasureLatencyRun performs one latency experiment: every node
// proposes at a constant frequency for LoadWindow; the run returns the
// consensus latency of every committed transaction, in seconds.
func (c *Config) MeasureLatencyRun(proto gpbft.Protocol, n int, seed int64) ([]float64, error) {
	cl, err := gpbft.NewCluster(c.clusterOptions(proto, n, seed))
	if err != nil {
		return nil, err
	}
	const warmup = time.Second
	// G-PBFT devices upload their location periodically (this feeds
	// geographic authentication and is part of G-PBFT's own overhead;
	// plain PBFT has no such traffic).
	if proto == gpbft.GPBFT {
		reports := int((warmup + c.LoadWindow) / c.ReportEvery)
		for i := 0; i < n; i++ {
			start := 50*time.Millisecond + time.Duration(i)*c.ReportEvery/time.Duration(n)
			cl.ScheduleReports(i, start, c.ReportEvery, reports)
		}
	}
	// Constant-frequency proposals, staggered per node.
	for i := 0; i < n; i++ {
		offset := warmup + time.Duration(i)*c.PerNodeInterval/time.Duration(n)
		for at := offset; at < warmup+c.LoadWindow; at += c.PerNodeInterval {
			payload := []byte(fmt.Sprintf("n%d@%d", i, at))
			cl.SubmitNodeTx(at, i, payload, 1)
		}
	}
	cl.RunUntilIdle(warmup + c.LoadWindow + c.DrainCap)
	if _, err := cl.VerifyAgreement(); err != nil {
		return nil, err
	}
	lats := stats.Seconds(cl.Metrics().Latencies())
	if len(lats) == 0 {
		return nil, fmt.Errorf("harness: %v n=%d: no transactions committed", proto, n)
	}
	return lats, nil
}

// MeasureCommCost performs one communication-cost experiment: exactly
// one transaction after startup traffic has drained ("we only propose
// one transaction in each experiment"). Returns total kilobytes and
// message count attributable to that transaction's consensus.
func (c *Config) MeasureCommCost(proto gpbft.Protocol, n int, seed int64) (float64, int64, error) {
	o := c.clusterOptions(proto, n, seed)
	// Background era churn would pollute the single-tx measurement.
	o.ForceEraSwitch = false
	o.DisableEraSwitch = true
	cl, err := gpbft.NewCluster(o)
	if err != nil {
		return 0, 0, err
	}
	cl.RunUntilIdle(time.Second) // drain startup
	cl.Traffic().Reset()
	// Submit from the LAST node: under G-PBFT with n past the cap this
	// is a client outside the committee, so the measured cost includes
	// the client→endorser hop, as in the paper's deployment model.
	cl.SubmitNodeTx(cl.Now()+10*time.Millisecond, n-1, []byte("probe"), 1)
	cl.RunUntilIdle(cl.Now() + c.DrainCap)
	if cl.Metrics().CommittedCount() != 1 {
		return 0, 0, fmt.Errorf("harness: %v n=%d: probe tx not committed", proto, n)
	}
	return cl.Traffic().KB(), cl.Traffic().Messages(), nil
}

// LatencyResults holds the pooled per-transaction latencies of a sweep.
type LatencyResults struct {
	Proto   gpbft.Protocol
	Sizes   []int
	Samples map[int][]float64 // n -> pooled latencies (seconds)
}

// CollectLatency sweeps node counts for one protocol, pooling the
// per-transaction latencies of Runs independent runs per size.
func (c *Config) CollectLatency(proto gpbft.Protocol, progress io.Writer) (*LatencyResults, error) {
	res := &LatencyResults{Proto: proto, Sizes: append([]int(nil), c.Sizes...), Samples: map[int][]float64{}}
	for _, n := range c.Sizes {
		for r := 0; r < c.Runs; r++ {
			seed := c.Seed + int64(n*1000+r)
			lats, err := c.MeasureLatencyRun(proto, n, seed)
			if err != nil {
				return nil, err
			}
			res.Samples[n] = append(res.Samples[n], lats...)
		}
		if progress != nil {
			s := stats.Summarize(res.Samples[n])
			fmt.Fprintf(progress, "# %v n=%d: %d txs, median %.3fs, mean %.3fs, max %.3fs\n",
				proto, n, s.N, s.Median, s.Mean, s.Max)
		}
	}
	return res, nil
}

// BoxplotTable renders the five-number summaries per node count — the
// data behind the paper's Figure 3 boxplots.
func (r *LatencyResults) BoxplotTable(title string) *stats.Table {
	t := stats.NewTable(title, "nodes", "txs", "min(s)", "q1(s)", "median(s)", "q3(s)", "max(s)", "mean(s)", "stddev(s)")
	for _, n := range r.Sizes {
		s := stats.Summarize(r.Samples[n])
		t.AddRow(n, s.N, fmt.Sprintf("%.3f", s.Min), fmt.Sprintf("%.3f", s.Q1),
			fmt.Sprintf("%.3f", s.Median), fmt.Sprintf("%.3f", s.Q3),
			fmt.Sprintf("%.3f", s.Max), fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("%.3f", s.StdDev))
	}
	return t
}

// Mean returns the mean latency for a node count (seconds).
func (r *LatencyResults) Mean(n int) float64 { return stats.Mean(r.Samples[n]) }

// CommResults holds single-transaction communication costs per size.
type CommResults struct {
	Proto gpbft.Protocol
	Sizes []int
	KB    map[int]float64
	Msgs  map[int]int64
}

// CollectComm sweeps node counts measuring the single-transaction
// communication cost.
func (c *Config) CollectComm(proto gpbft.Protocol, progress io.Writer) (*CommResults, error) {
	res := &CommResults{Proto: proto, Sizes: append([]int(nil), c.Sizes...), KB: map[int]float64{}, Msgs: map[int]int64{}}
	for _, n := range c.Sizes {
		kb, msgs, err := c.MeasureCommCost(proto, n, c.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		res.KB[n] = kb
		res.Msgs[n] = msgs
		if progress != nil {
			fmt.Fprintf(progress, "# %v n=%d: %.1f KB in %d messages\n", proto, n, kb, msgs)
		}
	}
	return res, nil
}

// Table renders the series — the data behind Figures 5a/5b.
func (r *CommResults) Table(title string) *stats.Table {
	t := stats.NewTable(title, "nodes", "cost(KB)", "messages")
	for _, n := range r.Sizes {
		t.AddRow(n, fmt.Sprintf("%.1f", r.KB[n]), r.Msgs[n])
	}
	return t
}
