// Package harness is the multi-process judge kit behind ssmfp-node's
// cluster modes: fork a fleet of single-node processes on loopback,
// collect each node's ledger report, check their /metrics endpoints, and
// check the exactly-once promise over the ledgers. Each judge supplies
// only its scenario — which children to start and what to do to them;
// the lifecycle, the report, the cluster check and the verdict live
// here, once.
package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// Fleet is one judged run's forked processes plus the scratch directory
// holding the topology, peers and credential files they are pointed at.
type Fleet struct {
	Dir  string
	bin  string
	kids []*Child
}

// NewFleet creates the scratch directory and resolves the executable to
// fork: the running binary, re-executed with per-child flags.
func NewFleet() (*Fleet, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "ssmfp-cluster-*")
	if err != nil {
		return nil, err
	}
	return &Fleet{Dir: dir, bin: bin}, nil
}

// WriteTopology writes g into the fleet directory under name and returns
// the path, ready for a child's -topology-file.
func (f *Fleet) WriteTopology(name string, g *graph.Graph) (string, error) {
	path := filepath.Join(f.Dir, name)
	return path, os.WriteFile(path, []byte(graph.Format(g)), 0o644)
}

// Peers reserves one loopback port for each of n processor slots by
// binding and closing, and writes them as the fleet's peers file. The
// window between the close and the child's bind is small, and a stolen
// port fails the child's listen loudly rather than silently.
func (f *Fleet) Peers(n int) (map[graph.ProcessID]string, string, error) {
	addrs := make(map[graph.ProcessID]string, n)
	for p := graph.ProcessID(0); int(p) < n; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		addrs[p] = l.Addr().String()
		l.Close()
	}
	path := filepath.Join(f.Dir, "peers.txt")
	return addrs, path, os.WriteFile(path, []byte(transport.FormatPeers(addrs)), 0o644)
}

// Start forks one child with args. Its stderr passes through; its first
// stdout line is kept for Announce.
func (f *Fleet) Start(args ...string) (*Child, error) {
	c, err := start(f.bin, args)
	if err != nil {
		return nil, err
	}
	f.kids = append(f.kids, c)
	return c, nil
}

// Close releases every child — all stdins closed first so the fleet
// winds down together, then each reaped, stragglers killed after five
// seconds — and removes the scratch directory.
func (f *Fleet) Close() {
	for _, c := range f.kids {
		c.stdin.Close()
	}
	for _, c := range f.kids {
		c.Reap(5 * time.Second)
	}
	os.RemoveAll(f.Dir)
}

// Child is one forked process. It runs until its stdin closes (the
// release signal every node mode honors) or it leaves on its own.
type Child struct {
	cmd   *exec.Cmd
	stdin *os.File
	line  chan []byte   // the first stdout line; closed empty if none came
	done  chan struct{} // closed once the process has been reaped
}

func start(bin string, args []string) (*Child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer stdinR.Close() // the child holds its own copy
	cmd.Stdin = stdinR
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		stdinW.Close()
		return nil, err
	}
	c := &Child{cmd: cmd, stdin: stdinW, line: make(chan []byte, 1), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		if sc.Scan() {
			c.line <- sc.Bytes()
		}
		close(c.line)
		// Wait closes stdout, so it runs only once the line is read.
		cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// Announce decodes the child's first stdout line — a node's report, a
// serve node's banner — as JSON into v. It fails if the child exits
// without one or none arrives within timeout.
func (c *Child) Announce(v any, timeout time.Duration) error {
	select {
	case b, ok := <-c.line:
		if !ok {
			return fmt.Errorf("exited without announcing itself")
		}
		if err := json.Unmarshal(b, v); err != nil {
			return fmt.Errorf("bad first line: %v", err)
		}
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("nothing on stdout within %v", timeout)
	}
}

// Reap waits up to wait for the child to exit, killing it past that, and
// reports whether it left on its own.
func (c *Child) Reap(wait time.Duration) bool {
	select {
	case <-c.done:
		return true
	case <-time.After(wait):
		c.cmd.Process.Kill()
		<-c.done
		return false
	}
}
