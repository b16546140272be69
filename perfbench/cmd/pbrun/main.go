// Command pbrun is the wall-clock benchmark of the G-PBFT node. It
// spawns one OS process per endorser (cmd/pbnode, wired like
// cmd/gpbft-node), drives them from this single generator process over
// loopback TCP with pre-signed pbft.Request frames, and times every
// transaction from its scheduled send to its commit at a fixed observer
// replica. Nothing is injected between nodes: delay is loopback only.
//
//	pbrun -node <pbnode binary> -dir <scratch dir> \
//	    --workload paper-c22 --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the nodes record
// layer spans and the run reports per-layer metrics, including replay
// microbenchmarks over inputs captured during the run.
//
// -calibrate <workload> runs the open-loop ladder that fixes the
// workloads' rates and prints it as JSON (see calibration.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	var (
		node      = flag.String("node", "", "pbnode binary")
		dir       = flag.String("dir", "", "scratch directory for node data")
		wl        = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 15, "measured window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		calibrate = flag.String("calibrate", "", "run the open-loop calibration ladder on this workload's cluster instead")
	)
	flag.Parse()
	if *node == "" || *dir == "" {
		fail("-node and -dir are required")
	}
	runDir := filepath.Join(*dir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fail("%v", err)
	}
	// Leave nothing behind: node data can be large.
	defer os.RemoveAll(runDir)

	// A signal ends the run through the same cleanup as an error: every
	// cluster registered with the reaper is stopped before exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		reaper.stopAll()
		os.RemoveAll(runDir)
		os.Exit(2)
	}()

	if *calibrate != "" {
		out, err := runCalibration(*calibrate, runConfig{bin: *node, dir: runDir, seed: *seed, seconds: *seconds, setups: 1})
		reaper.stopAll()
		if err != nil {
			os.RemoveAll(runDir)
			fail("%v", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
		return
	}

	ws, ok := workloads[*wl]
	if !ok {
		fail("unknown workload %q", *wl)
	}
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	res, err := runWorkload(ws, runConfig{
		bin: *node, dir: runDir, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 7,
	})
	reaper.stopAll()
	if err != nil {
		os.RemoveAll(runDir)
		fail("%v", err)
	}
	if err := res.print(os.Stdout); err != nil {
		os.RemoveAll(runDir)
		fail("%v", err)
	}
	if !res.Correct {
		os.RemoveAll(runDir)
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pbrun: "+format+"\n", args...)
	os.Exit(1)
}
