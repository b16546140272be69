package main

import (
	"fmt"
	"os"
	"time"
)

// calibrationStep is one rung of the open-loop ladder.
type calibrationStep struct {
	OfferedTPS     float64 `json:"offered_tps"`
	CommittedShare float64 `json:"committed_per_offered"`
	GoodputTPS     float64 `json:"goodput_tps"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	LagP99Ms       float64 `json:"gen_lag_p99_ms"`
	LagMaxMs       float64 `json:"gen_lag_max_ms"`
	NodeCPUCores   float64 `json:"node_cpu_cores"`
	CPUMicrosPerTx float64 `json:"cpu_us_per_tx"`
	Correct        bool    `json:"correct"`
}

// calibrationLadders are the offered rates stepped through per cluster.
// c7 spans about a quarter of the knee to twice it; c22 looks for a
// rate that keeps the nodes on about one of the two cores.
var calibrationLadders = map[string][]float64{
	"crash-c7":  {150, 300, 450, 600, 800, 1000, 1200, 1600},
	"paper-c22": {64, 80, 100, 120},
}

// runCalibration runs the open-loop ladder on the named workload's
// cluster with no fault injected: one fresh cluster per rate.
func runCalibration(name string, rc runConfig) (any, error) {
	base, ok := workloads[name]
	ladder := calibrationLadders[name]
	if !ok || ladder == nil {
		return nil, fmt.Errorf("no calibration ladder for %q", name)
	}
	base.killAt = 0
	base.drain = 5 * time.Second
	out := struct {
		Workload string            `json:"workload"`
		Seconds  int               `json:"seconds"`
		Steps    []calibrationStep `json:"steps"`
	}{Workload: base.name, Seconds: rc.seconds}
	for _, rate := range ladder {
		ws := base
		ws.rate, ws.window = rate, 0
		res, err := runWorkload(ws, rc)
		if err != nil {
			return nil, fmt.Errorf("rate %v: %w", rate, err)
		}
		m := res.metrics
		st := calibrationStep{
			OfferedTPS:     rate,
			CommittedShare: ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)),
			GoodputTPS:     m["goodput_tps"],
			P50Ms:          m["p50_ms"],
			P99Ms:          m["p99_ms"],
			LagP99Ms:       m["gen.lag_p99_ms"],
			LagMaxMs:       m["gen.lag_max_ms"],
			NodeCPUCores:   m["cpu_cores"],
			CPUMicrosPerTx: m["cpu_us_per_tx"],
			Correct:        res.Correct,
		}
		fmt.Fprintf(os.Stderr, "calibrate %s: %+v\n", name, st)
		out.Steps = append(out.Steps, st)
	}
	return out, nil
}
