package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmap/internal/metrics"
	"dmap/internal/obs"
)

// readyLine is what `dmapnode serve` prints once its listener is bound.
const readyLine = "mapping node listening on "

// nodeSpec is the frozen part of a workload's node flags.
type nodeSpec struct {
	durable        bool          // -data-dir -fsync os -snapshot-mb 1
	gossipInterval time.Duration // > 0: -gossip-peers <other two>
	debug          bool          // -debug-addr (traced runs only)
}

// flags renders the spec for the record header.
func (s nodeSpec) flags() string {
	f := []string{"serve", "-log-level", "warn"}
	if s.durable {
		f = append(f, "-data-dir", "<dir>", "-fsync", "os", "-snapshot-mb", "1")
	}
	if s.gossipInterval > 0 {
		f = append(f, "-gossip-peers", "<other two>", "-gossip-interval", s.gossipInterval.String())
	}
	if s.debug {
		f = append(f, "-debug-addr", "<addr>")
	}
	return strings.Join(f, " ")
}

type node struct {
	idx       int
	addr      string
	debugAddr string
	dataDir   string
	args      []string
	logf      *os.File

	cmd     *exec.Cmd
	drained chan struct{} // closed when the stdout copier has finished
	execAt  time.Time     // just before the process was started
}

// cluster owns the three node processes of one set-up and everything
// they leave behind.
type cluster struct {
	bin    string
	nodes  []*node
	mu     sync.Mutex
	closed bool
	// deadCPU is the CPU time of node processes that were killed, read
	// just before the kill, so per-op CPU survives restarts.
	deadCPU time.Duration
}

// reservePorts binds n loopback ports at once, notes them and releases
// them together, so that no two of them are the same. Gossip peers must
// know each other's address before any of them starts, so a node cannot
// pick its own port.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// staleNodes lists live processes running bin: leftovers of a run that
// died without cleaning up. Starting beside them would measure them.
func staleNodes(bin string) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink("/proc/" + e.Name() + "/exe")
		if err != nil {
			continue
		}
		if strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// startCluster reserves ports, spawns the three nodes and waits until
// each has printed its ready line. Between releasing a reserved port
// and the node binding it another socket can take it; that start fails
// and is tried again with fresh ports.
func startCluster(bin, dir string, spec nodeSpec) (c *cluster, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if c, err = startClusterOnce(bin, dir, spec); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func startClusterOnce(bin, dir string, spec nodeSpec) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{bin: bin}
	ports, err := reservePorts(2 * numNodes)
	if err != nil {
		return nil, fmt.Errorf("reserve ports: %w", err)
	}
	for i := 0; i < numNodes; i++ {
		n := &node{idx: i, addr: ports[2*i]}
		if spec.debug {
			n.debugAddr = ports[2*i+1]
		}
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		n.args = []string{"serve", "-addr", n.addr, "-log-level", "warn"}
		if spec.durable {
			n.dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", n.idx))
			n.args = append(n.args, "-data-dir", n.dataDir, "-fsync", "os", "-snapshot-mb", "1")
		}
		if spec.gossipInterval > 0 {
			var peers []string
			for _, p := range c.nodes {
				if p != n {
					peers = append(peers, p.addr)
				}
			}
			n.args = append(n.args, "-gossip-peers", strings.Join(peers, ","), "-gossip-interval", spec.gossipInterval.String())
		}
		if spec.debug {
			n.args = append(n.args, "-debug-addr", n.debugAddr)
		}
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("node-%d.log", n.idx)))
		if err != nil {
			c.close()
			return nil, err
		}
		n.logf = logf
	}
	for _, n := range c.nodes {
		if err := c.start(n); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// start execs one node and blocks until its ready line. The node gets
// one P (the sandbox has two cores for three nodes and the driver), its
// own process group, and a parent-death signal so that it cannot
// outlive a driver that crashes without running its deferred cleanup.
func (c *cluster) start(n *node) error {
	cmd := exec.Command(c.bin, n.args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = n.logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	n.execAt = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", n.idx, err)
	}
	n.cmd = cmd
	n.drained = make(chan struct{})
	ready := make(chan error, 1)
	go func() {
		defer close(n.drained)
		r := bufio.NewReader(out)
		signalled := false
		for {
			line, err := r.ReadString('\n')
			fmt.Fprint(n.logf, line)
			if !signalled && strings.HasPrefix(line, readyLine) {
				signalled = true
				ready <- nil
			}
			if err != nil {
				if !signalled {
					ready <- fmt.Errorf("node %d exited before listening (see %s)", n.idx, n.logf.Name())
				}
				return
			}
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			c.reap(n)
		}
		return err
	case <-time.After(30 * time.Second):
		c.reap(n)
		return fmt.Errorf("node %d not listening after 30s (see %s)", n.idx, n.logf.Name())
	}
}

// reap SIGKILLs a node's process group and waits for it and for the
// stdout copier to end.
func (c *cluster) reap(n *node) {
	if n.cmd == nil {
		return
	}
	_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-n.drained
	_ = n.cmd.Wait() // "signal: killed" is the expected outcome
	n.cmd = nil
}

// kill SIGKILLs node i, keeping its CPU time in the cluster's books.
func (c *cluster) kill(i int) {
	n := c.nodes[i]
	if n.cmd == nil {
		return
	}
	if s, err := readProc(n.cmd.Process.Pid); err == nil {
		c.deadCPU += s.cpu
	}
	c.reap(n)
}

// restart starts node i again with the flags and address it had.
func (c *cluster) restart(i int) error { return c.start(c.nodes[i]) }

// close kills every node, waits for each, and removes the data dirs.
// Logs stay. It is safe to call twice and from the signal handler.
func (c *cluster) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		c.reap(n)
		if n.logf != nil {
			n.logf.Close()
		}
		if n.dataDir != "" {
			os.RemoveAll(n.dataDir)
		}
	}
}

// addrs maps the folded AS indices (0..2) to node addresses.
func (c *cluster) addrs() map[int]string {
	m := make(map[int]string, numNodes)
	for _, n := range c.nodes {
		m[n.idx] = n.addr
	}
	return m
}

// addrsOnly maps every AS to node i: a client built on it asks node i
// alone, whatever the placement says.
func (c *cluster) addrsOnly(i int) map[int]string {
	m := make(map[int]string, numNodes)
	for as := 0; as < numNodes; as++ {
		m[as] = c.nodes[i].addr
	}
	return m
}

// sample reads every live node from /proc. A node that is down reads
// as the zero sample.
func (c *cluster) sample() ([]procSample, error) {
	out := make([]procSample, len(c.nodes))
	for i, n := range c.nodes {
		if n.cmd == nil {
			continue
		}
		s, err := readProc(n.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// cpu is the CPU time all node processes, dead and alive, have used.
func (c *cluster) cpu() (time.Duration, error) {
	ss, err := c.sample()
	if err != nil {
		return 0, err
	}
	total := c.deadCPU
	for _, s := range ss {
		total += s.cpu
	}
	return total, nil
}

// rss is the summed resident set of the live nodes.
func (c *cluster) rss() (int64, error) {
	ss, err := c.sample()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range ss {
		total += s.rss
	}
	return total, nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches node i's /debug/metrics through the repo's own strict
// decoder.
func (c *cluster) scrape(i int) (metrics.Snapshot, error) {
	resp, err := scrapeClient.Get("http://" + c.nodes[i].debugAddr + "/debug/metrics?format=json")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("scrape node %d: status %d", i, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return obs.DecodeSnapshot(body)
}

// scrapeAll merges the live nodes' snapshots (counters sum, histograms
// add bucket by bucket).
func (c *cluster) scrapeAll() (metrics.Snapshot, error) {
	var snaps []metrics.Snapshot
	for i, n := range c.nodes {
		if n.cmd == nil {
			continue
		}
		s, err := c.scrape(i)
		if err != nil {
			return metrics.Snapshot{}, err
		}
		snaps = append(snaps, s)
	}
	return metrics.MergeSnapshots(snaps...)
}
