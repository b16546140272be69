package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in code and
// the ones BENCHMARK.json declares identical, name for name.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no definition", w.Name)
		}
	}
}

// TestEveryMetricPrintsWithItsUnit checks the output contract: every
// named metric appears with its unit, and a missing one is an error,
// never a silent gap.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		r := &result{Correct: true, Attempted: 1, metrics: map[string]float64{}, defs: defs}
		for i, d := range defs {
			r.metrics[d.name] = float64(i) + 0.5
		}
		var sb strings.Builder
		if err := r.print(&sb); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		var out struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Metrics) != len(defs) {
			t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(defs))
		}
		for _, d := range defs {
			if mv, ok := out.Metrics[d.name]; !ok || mv.Unit != d.unit {
				t.Errorf("metric %s printed as %+v, want unit %q", d.name, mv, d.unit)
			}
		}
		delete(r.metrics, defs[0].name)
		if err := r.print(&strings.Builder{}); err == nil {
			t.Errorf("a missing %s printed without error", defs[0].name)
		}
	}
}

// TestReportShareFollowsReportInterval: every device of the deployment
// files one location report per ReportInterval of the stream's nominal
// clock, and each device's timestamps never go backwards.
func TestReportShareFollowsReportInterval(t *testing.T) {
	const (
		n      = 7
		rate   = 250.0
		count  = 2500 // 10 s of nominal time
		report = 5 * time.Second
	)
	txs := makeTxs(n, 1, count, rate, report)
	perDevice := map[gcrypto.Address]int{}
	last := map[gcrypto.Address]time.Time{}
	for _, g := range txs {
		if g.tx.Verify() != nil {
			t.Fatalf("transaction %x does not verify", g.id[:4])
		}
		if g.tx.Type == types.TxLocationReport {
			perDevice[g.tx.Sender]++
		}
		if g.tx.Geo.Timestamp.Before(last[g.tx.Sender]) {
			t.Fatalf("device %v timestamps go backwards", g.tx.Sender)
		}
		last[g.tx.Sender] = g.tx.Geo.Timestamp
	}
	devices := deploymentSize - n
	if len(perDevice) != devices {
		t.Errorf("%d devices reported, want all %d", len(perDevice), devices)
	}
	for a, k := range perDevice {
		if k != 2 {
			t.Errorf("device %v filed %d reports in 10 s at a 5 s interval, want 2", a, k)
		}
	}
}

// stallWriter accepts writes instantly except one, which blocks for
// stall: a sink that stops draining for a while.
type stallWriter struct {
	mu      sync.Mutex
	writes  int
	stallAt int
	stall   time.Duration
}

func (s *stallWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes++
	n := s.writes
	s.mu.Unlock()
	if n == s.stallAt {
		time.Sleep(s.stall)
	}
	return len(p), nil
}

// TestStalledSinkShowsInLatencyAndLag: an open-loop schedule behind a
// stalled sink must carry the stall into the latency of every later
// transaction (timed from its scheduled send, not its late actual
// send) and into the generator's lag.
func TestStalledSinkShowsInLatencyAndLag(t *testing.T) {
	const (
		count  = 40
		period = 5 * time.Millisecond
		stall  = 200 * time.Millisecond
	)
	txs := make([]*genTx, count)
	start := time.Now().Add(10 * time.Millisecond).UnixNano()
	for i := range txs {
		txs[i] = &genTx{frame: []byte{byte(i)}, schedNs: start + int64(i)*int64(period)}
	}
	sink := &stallWriter{stallAt: 10, stall: stall}
	sendOpenLoop(sink, txs, make(chan struct{}))
	// The sink commits what it receives: commit time = write return.
	for _, g := range txs {
		g.commits.Store(1)
		g.commitNs.Store(g.sentNs)
	}
	lat, lags := latencies(txs)
	// txs[10] was due one period after txs[9] began its stalled write:
	// it went out, and committed, about stall-period late.
	if got := lat[10]; got < float64(stall-period)/1e6*0.9 {
		t.Errorf("latency of the transaction after the stall = %.1f ms, want about %v", got, stall-period)
	}
	if lagMax := maxOf(lags); lagMax < float64(stall-period)/1e6*0.9 {
		t.Errorf("gen.lag_max_ms = %.1f, want at least about %v", lagMax, stall-period)
	}
	if lagFirst := lags[0]; lagFirst > float64(period)/1e6 {
		t.Errorf("lag before the stall = %.2f ms, want under one period", lagFirst)
	}
}

// TestRolesSitNextToThePrimary: the entry is the primary's successor in
// the rotation, the observer its predecessor, and neither is the
// primary.
func TestRolesSitNextToThePrimary(t *testing.T) {
	ws := workloads["crash-c7"]
	order, err := rotation(ws.n, ws.era, ws.report)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != ws.n {
		t.Fatalf("rotation has %d members, want %d", len(order), ws.n)
	}
	for k, primary := range order {
		r := pickRoles(order, primary)
		if r.entry != order[(k+1)%ws.n] || r.observer != order[(k+ws.n-1)%ws.n] || r.entry == primary || r.observer == primary {
			t.Errorf("primary %d: roles %+v, rotation %v", primary, r, order)
		}
	}
}

// nodeBinDir holds the node binary the process tests build; TestMain
// removes it.
var nodeBinDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if nodeBinDir != "" {
		os.RemoveAll(nodeBinDir)
	}
	os.Exit(code)
}

// buildNode compiles the node binary once per test binary.
var buildNode = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "pbnode")
	if err != nil {
		return "", err
	}
	nodeBinDir = dir
	bin := filepath.Join(dir, "pbnode")
	out, err := exec.Command("go", "build", "-o", bin, "gpbft/perfbench/cmd/pbnode").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build pbnode: %v\n%s", err, out)
	}
	return bin, nil
})

// procsUnder lists live processes whose command line mentions dir.
func procsUnder(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc to inspect")
	}
	var out []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		if cmd := strings.ReplaceAll(string(b), "\x00", " "); strings.Contains(cmd, dir) {
			out = append(out, e.Name()+": "+cmd)
		}
	}
	return out
}

func testCluster(t *testing.T, dir string) clusterConfig {
	bin, err := buildNode()
	if err != nil {
		t.Fatal(err)
	}
	return clusterConfig{bin: bin, dir: dir, n: 4, era: 30 * time.Second, report: 5 * time.Second}
}

// TestNoProcessOrPortOutlivesStop: after stop returns, every node
// process is reaped and every port it listened on is free again.
func TestNoProcessOrPortOutlivesStop(t *testing.T) {
	dir := t.TempDir()
	c, err := startCluster(testCluster(t, dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		t.Fatal(err)
	}
	pids := c.pids()
	c.stop()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("node pid %d still exists after stop (kill 0: %v)", pid, err)
		}
	}
	for _, p := range c.ports {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			t.Errorf("port %d still bound after stop: %v", p, err)
			continue
		}
		ln.Close()
	}
	if left := procsUnder(t, dir); len(left) > 0 {
		t.Errorf("processes outlived the run: %v", left)
	}
}

// TestNoProcessOutlivesAFailedStart: a spawn that fails half way stops
// the nodes already started before the error is returned.
func TestNoProcessOutlivesAFailedStart(t *testing.T) {
	dir := t.TempDir()
	// A file where node 2's data directory should go fails its spawn.
	if err := os.WriteFile(filepath.Join(dir, "node2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := startCluster(testCluster(t, dir), nil); err == nil {
		t.Fatal("startCluster succeeded over a blocked data directory")
	}
	if left := procsUnder(t, dir); len(left) > 0 {
		t.Errorf("processes outlived the failed start: %v", left)
	}
}

// TestReaperStopsEveryCluster is the signal path: stopAll must reap
// every live cluster, including a restarted node's new process.
func TestReaperStopsEveryCluster(t *testing.T) {
	dir := t.TempDir()
	c, err := startCluster(testCluster(t, dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		reaper.stopAll()
		t.Fatal(err)
	}
	c.kill(1)
	if err := c.restart(1); err != nil {
		reaper.stopAll()
		t.Fatal(err)
	}
	reaper.stopAll()
	if left := procsUnder(t, dir); len(left) > 0 {
		t.Errorf("processes outlived stopAll: %v", left)
	}
	if err := c.restart(2); err == nil {
		t.Error("a stopped cluster accepted a restart")
	}
}

// pids lists every process the cluster ever started.
func (c *cluster) pids() []int {
	var out []int
	for _, s := range c.slots {
		for _, p := range s.procs {
			out = append(out, p.cmd.Process.Pid)
		}
	}
	return out
}
