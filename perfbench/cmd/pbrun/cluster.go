package main

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpbft/perfbench/internal/wire"
)

// nodeGOMAXPROCS gives every node process one P on any machine. Up to 22
// node processes share the cores (two on the 2-core x86-64 VM the
// workloads were calibrated on), so more Ps per process only add
// scheduler contention.
const nodeGOMAXPROCS = 1

// clusterConfig describes the node processes of one run.
type clusterConfig struct {
	bin    string // pbnode binary
	dir    string // per-run directory; node i keeps its data in dir/node<i>
	n      int
	era    time.Duration
	report time.Duration
	trace  bool
}

// proc is one incarnation of a node process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the record stream hit EOF and Wait returned
	err  error

	mu       sync.Mutex
	ready    *wire.Ready
	blocks   []wire.Block
	switches []wire.Switch
	counters []wire.Counters
	final    *wire.Final
	// notify receives a token after every record (capacity one: a
	// waiter only needs to know something changed).
	notify chan struct{}
}

// slot is one node index across its incarnations (crash-c7 restarts one).
type slot struct {
	index int
	procs []*proc
}

func (s *slot) cur() *proc { return s.procs[len(s.procs)-1] }

// cluster is the set of node processes of one run.
type cluster struct {
	cfg   clusterConfig
	ports []int
	// mu serializes spawning against stopping, so a restart racing a
	// shutdown cannot leave a process behind.
	mu      sync.Mutex
	stopped bool
	slots   []*slot
	// onBlock, if set, sees every block record of every node as it
	// arrives (from the node's reader goroutine).
	onBlock func(index int, b *wire.Block)
}

// reaper tracks live clusters so that every exit path, a signal
// included, stops their processes.
var reaper = &clusterSet{live: map[*cluster]bool{}}

type clusterSet struct {
	mu   sync.Mutex
	live map[*cluster]bool
}

func (r *clusterSet) add(c *cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live[c] = true
}

func (r *clusterSet) remove(c *cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, c)
}

// stopAll stops every live cluster and returns once all are reaped.
func (r *clusterSet) stopAll() {
	r.mu.Lock()
	cs := make([]*cluster, 0, len(r.live))
	for c := range r.live {
		cs = append(cs, c)
	}
	r.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// freePorts finds n free loopback ports below Linux's default ephemeral
// range (32768 and up), so that no outgoing connection of a starting
// node can take a port before the node that owns it binds it.
func freePorts(n int) ([]int, error) {
	const lo, hi = 10000, 32768
	start := rand.Intn(hi - lo)
	var ports []int
	for k := 0; k < hi-lo && len(ports) < n; k++ {
		p := lo + (start+k)%(hi-lo)
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		ln.Close()
		ports = append(ports, p)
	}
	if len(ports) < n {
		return nil, fmt.Errorf("only %d free loopback ports in [%d,%d)", len(ports), lo, hi)
	}
	return ports, nil
}

// startCluster spawns every node. On error, nodes already started are
// stopped before it returns.
func startCluster(cfg clusterConfig, onBlock func(int, *wire.Block)) (*cluster, error) {
	ports, perr := freePorts(cfg.n)
	if perr != nil {
		return nil, perr
	}
	c := &cluster{cfg: cfg, ports: ports, onBlock: onBlock}
	reaper.add(c)
	c.mu.Lock()
	var err error
	for i := 0; i < cfg.n && err == nil; i++ {
		s := &slot{index: i}
		c.slots = append(c.slots, s)
		if err = c.spawn(s); err != nil {
			c.slots = c.slots[:i]
		}
	}
	c.mu.Unlock()
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) nodeDir(i int) string { return filepath.Join(c.cfg.dir, "node"+strconv.Itoa(i)) }

func (c *cluster) addr(i int) string { return fmt.Sprintf("127.0.0.1:%d", c.ports[i]) }

// restart starts a new incarnation of slot i.
func (c *cluster) restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return fmt.Errorf("restart node %d: cluster stopped", i)
	}
	return c.spawn(c.slots[i])
}

// spawn starts a new incarnation of slot s over its data directory.
func (c *cluster) spawn(s *slot) error {
	dir := c.nodeDir(s.index)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ports := make([]string, len(c.ports))
	for i, p := range c.ports {
		ports[i] = strconv.Itoa(p)
	}
	args := []string{
		"-index", strconv.Itoa(s.index),
		"-ports", strings.Join(ports, ","),
		"-data", dir,
		"-era", c.cfg.era.String(),
		"-report", c.cfg.report.String(),
	}
	if c.cfg.trace {
		args = append(args, "-trace")
	}
	logf, err := os.OpenFile(filepath.Join(dir, "node.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.cfg.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeGOMAXPROCS))
	cmd.Stderr = logf
	// A node must not outlive the runner, even if the runner is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", s.index, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), notify: make(chan struct{}, 1)}
	s.procs = append(s.procs, p)
	go c.read(s.index, p, stdout)
	return nil
}

// read decodes one process's record stream until EOF, then reaps it.
func (c *cluster) read(index int, p *proc, r io.Reader) {
	dec := gob.NewDecoder(bufio.NewReaderSize(r, 64<<10))
	for {
		var rec wire.Record
		if err := dec.Decode(&rec); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				p.err = fmt.Errorf("node %d record stream: %w", index, err)
			}
			break
		}
		if rec.Block != nil && c.onBlock != nil {
			c.onBlock(index, rec.Block)
		}
		p.mu.Lock()
		switch {
		case rec.Ready != nil:
			p.ready = rec.Ready
		case rec.Block != nil:
			p.blocks = append(p.blocks, *rec.Block)
		case rec.Switch != nil:
			p.switches = append(p.switches, *rec.Switch)
		case rec.Counters != nil:
			p.counters = append(p.counters, *rec.Counters)
		case rec.Final != nil:
			p.final = rec.Final
		}
		p.mu.Unlock()
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
	_, _ = io.Copy(io.Discard, r) // drain so the child never blocks on a full pipe
	if err := p.cmd.Wait(); err != nil && p.err == nil {
		p.err = err
	}
	close(p.done)
}

// waitFor blocks until cond holds for p, the process ends, or timeout.
func (p *proc) waitFor(timeout time.Duration, cond func(p *proc) bool) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		ok := cond(p)
		p.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-p.notify:
		case <-p.done:
			p.mu.Lock()
			ok := cond(p)
			p.mu.Unlock()
			return ok
		case <-deadline.C:
			return false
		}
	}
}

// waitReady waits until every current process reports ready.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range c.slots {
		if !s.cur().waitFor(time.Until(deadline), func(p *proc) bool { return p.ready != nil }) {
			return fmt.Errorf("node %d not ready after %v (see %s)", s.index, timeout, filepath.Join(c.nodeDir(s.index), "node.log"))
		}
	}
	return nil
}

// snapshot asks every live process for a counter snapshot and waits for
// the answers. It returns the new snapshot per slot (nil for a slot
// whose process has ended).
func (c *cluster) snapshot(timeout time.Duration) ([]*wire.Counters, error) {
	all := make([]int, len(c.slots))
	for i := range all {
		all[i] = i
	}
	return c.snapshotOf(all, timeout)
}

// snapshotOf is snapshot for the listed slots only.
func (c *cluster) snapshotOf(which []int, timeout time.Duration) ([]*wire.Counters, error) {
	out := make([]*wire.Counters, len(c.slots))
	want := make(map[int]int, len(which))
	deadline := time.Now().Add(timeout)
	for _, i := range which {
		p := c.slots[i].cur()
		// A restarted process installs its signal handler before it
		// reports ready; until then SIGUSR1 would end it.
		ready := p.waitFor(time.Until(deadline), func(p *proc) bool { return p.ready != nil })
		select {
		case <-p.done:
			continue
		default:
		}
		if !ready {
			return nil, fmt.Errorf("node %d not ready for a counter request", i)
		}
		p.mu.Lock()
		want[i] = len(p.counters) + 1
		p.mu.Unlock()
		if err := p.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
			return nil, fmt.Errorf("counters of node %d: %w", i, err)
		}
	}
	for i, n := range want {
		p := c.slots[i].cur()
		if !p.waitFor(time.Until(deadline), func(p *proc) bool { return len(p.counters) >= n }) {
			return nil, fmt.Errorf("node %d did not answer a counter request", i)
		}
		p.mu.Lock()
		cs := p.counters[n-1]
		p.mu.Unlock()
		out[i] = &cs
	}
	return out, nil
}

// kill SIGKILLs slot i's current process and waits until it has ended.
func (c *cluster) kill(i int) {
	p := c.slots[i].cur()
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.done
}

// stop ends every process: SIGTERM first so nodes write their final
// records and close their logs, SIGKILL for any that linger. It returns
// once every process has been reaped.
func (c *cluster) stop() {
	defer reaper.remove(c)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	for _, s := range c.slots {
		for _, p := range s.procs {
			select {
			case <-p.done:
			default:
				_ = p.cmd.Process.Signal(syscall.SIGTERM) // a race with exit is harmless
			}
		}
	}
	grace := time.NewTimer(10 * time.Second)
	defer grace.Stop()
	for _, s := range c.slots {
		for _, p := range s.procs {
			select {
			case <-p.done:
			case <-grace.C:
				for _, s2 := range c.slots {
					for _, p2 := range s2.procs {
						_ = p2.cmd.Process.Kill()
					}
				}
				<-p.done
			}
		}
	}
}

// dumpLogs copies the tail of every node log to w: the run directory
// is removed on exit, so this is what is left to diagnose a failure.
func (c *cluster) dumpLogs(w io.Writer) {
	for i := range c.slots {
		b, err := os.ReadFile(filepath.Join(c.nodeDir(i), "node.log"))
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) > 8 {
			lines = lines[len(lines)-8:]
		}
		fmt.Fprintf(w, "--- node %d log tail\n%s\n", i, strings.Join(lines, "\n"))
	}
}
