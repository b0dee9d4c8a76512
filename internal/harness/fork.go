// Package harness holds ssmfp-node's multi-process judges: Spawn (plain,
// TLS and byzantine runs) and Elastic (the churn run) fork a Fleet of
// single-node processes on loopback, each handed its wire listener,
// drive their scenario, and return a summary with every violation of
// exactly-once delivery, of the /metrics checks and, under attack, of
// the rejection books. The caller supplies each child's command line,
// since the flags are its own; the node's ledger Report, the /metrics
// sweep and the verdict live here, once.
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

// ListenerFD is the file descriptor under which a child finds its wire
// listener: its first and only extra file.
const ListenerFD = 3

// Fleet is one judged run's forked processes plus the scratch directory
// holding the topology, peers and credential files they are pointed at.
type Fleet struct {
	Dir  string
	bin  string
	kids []*Child
	lns  map[graph.ProcessID]*net.TCPListener // reserved, not yet handed over
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
	return &Fleet{Dir: dir, bin: bin, lns: make(map[graph.ProcessID]*net.TCPListener)}, nil
}

// WriteTopology writes g into the fleet directory under name and returns
// the path, ready for a child's -topology-file.
func (f *Fleet) WriteTopology(name string, g *graph.Graph) (string, error) {
	path := filepath.Join(f.Dir, name)
	return path, os.WriteFile(path, []byte(graph.Format(g)), 0o644)
}

// Peers binds one loopback wire listener for each of n processor slots
// and writes their addresses as the fleet's peers file. Each listener
// stays open here until Start hands it to its slot's child, so no other
// process can take the port in between.
func (f *Fleet) Peers(n int) (map[graph.ProcessID]string, string, error) {
	addrs := make(map[graph.ProcessID]string, n)
	for p := graph.ProcessID(0); int(p) < n; p++ {
		l, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, "", err
		}
		f.lns[p] = l
		addrs[p] = l.Addr().String()
	}
	path := filepath.Join(f.Dir, "peers.txt")
	return addrs, path, os.WriteFile(path, []byte(transport.FormatPeers(addrs)), 0o644)
}

// Start forks processor p's child with args. The wire listener Peers
// reserved for p becomes the child's file descriptor ListenerFD; from
// then on only the child holds it. The child's stderr passes through;
// its first stdout line is kept for Announce.
func (f *Fleet) Start(p graph.ProcessID, args ...string) (*Child, error) {
	l, ok := f.lns[p]
	if !ok {
		return nil, fmt.Errorf("no wire listener reserved for processor %d", p)
	}
	file, err := l.File() // a duplicate: the socket stays bound through it
	if err != nil {
		return nil, err
	}
	defer file.Close()
	delete(f.lns, p)
	l.Close()

	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{file}
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
	f.kids = append(f.kids, c)
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

// Close releases every child — all stdins closed first so the fleet
// winds down together, then each reaped, stragglers killed after five
// seconds — closes the listeners no child took, and removes the scratch
// directory.
func (f *Fleet) Close() {
	for _, c := range f.kids {
		c.stdin.Close()
	}
	for _, c := range f.kids {
		c.Reap(5 * time.Second)
	}
	for _, l := range f.lns {
		l.Close()
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
