package harness

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// TestMain lets the fork tests re-exec this test binary as the child:
// with the marker set, the process plays the role its arguments name
// instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SSMFP_HARNESS_CHILD") == "1" {
		if len(os.Args) > 1 && os.Args[1] == "node" {
			if err := testNode(os.Args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "test node:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
		switch strings.Join(os.Args[1:], " ") {
		case "announce": // a well-behaved node: one line, then idle on stdin
			fmt.Println(`{"id":7}`)
			io.Copy(io.Discard, os.Stdin)
		case "garbled":
			fmt.Println("not json")
			io.Copy(io.Discard, os.Stdin)
		case "stubborn": // ignores the release signal
			fmt.Println(`{"id":8}`)
			time.Sleep(time.Minute)
		case "wire": // serves one byte on its inherited wire listener
			l, err := net.FileListener(os.NewFile(ListenerFD, "wire"))
			if err != nil {
				os.Exit(1)
			}
			fmt.Println(`{"id":9}`)
			if c, err := l.Accept(); err == nil {
				c.Write([]byte("w"))
				c.Close()
			}
			io.Copy(io.Discard, os.Stdin)
		}
		os.Exit(0) // "mute" and anything else: leave without a word
	}
	os.Exit(m.Run())
}

func TestFleetLifecycle(t *testing.T) {
	t.Setenv("SSMFP_HARNESS_CHILD", "1")
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	dir := f.Dir
	if _, _, err := f.Peers(4); err != nil {
		t.Fatal(err)
	}

	good, err := f.Start(0, "announce")
	if err != nil {
		t.Fatal(err)
	}
	var banner struct{ ID int }
	if err := good.Announce(&banner, 10*time.Second); err != nil || banner.ID != 7 {
		t.Fatalf("announce: %+v, %v", banner, err)
	}

	mute, _ := f.Start(1, "mute")
	if err := mute.Announce(&banner, 10*time.Second); err == nil || !strings.Contains(err.Error(), "without announcing") {
		t.Fatalf("mute child announced: %v", err)
	}
	if !mute.Reap(10 * time.Second) {
		t.Fatal("a child that exited by itself was reported killed")
	}

	garbled, _ := f.Start(2, "garbled")
	if err := garbled.Announce(&banner, 10*time.Second); err == nil || !strings.Contains(err.Error(), "bad first line") {
		t.Fatalf("garbled line accepted: %v", err)
	}

	stubborn, _ := f.Start(3, "stubborn")
	if err := stubborn.Announce(&banner, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stubborn.stdin.Close()
	if stubborn.Reap(100 * time.Millisecond) {
		t.Fatal("a child ignoring stdin EOF left on its own")
	}

	// Close releases the rest and removes the scratch directory.
	f.Close()
	if !good.Reap(time.Second) || !garbled.Reap(time.Second) {
		t.Fatal("Close left a child running")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("scratch dir survived Close: %v", err)
	}
}

func TestAnnounceTimeout(t *testing.T) {
	t.Setenv("SSMFP_HARNESS_CHILD", "1")
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := f.Peers(2); err != nil {
		t.Fatal(err)
	}
	// Announce is read once per child; a second read finds nothing.
	c, _ := f.Start(0, "announce")
	var v any
	if err := c.Announce(&v, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(&v, 50*time.Millisecond); err == nil {
		t.Fatal("a second announcement appeared")
	}
	if _, err := f.Start(1); err != nil { // no role: exits at once
		t.Fatal(err)
	}
}

func TestFleetFiles(t *testing.T) {
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addrs, path, err := f.Peers(3)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	parsed, err := transport.ParsePeers(pf)
	if err != nil || len(parsed) != 3 {
		t.Fatalf("peers file: %v, %v", parsed, err)
	}
	for p, addr := range addrs {
		if parsed[p] != addr || !strings.HasPrefix(addr, "127.0.0.1:") {
			t.Fatalf("slot %d: file says %q, reserved %q", p, parsed[p], addr)
		}
	}

	topo, err := f.WriteTopology("t.txt", graph.Ring(4))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if g, err := graph.Parse(tf); err != nil || g.N() != 4 || len(g.Edges()) != 4 {
		t.Fatalf("topology file: %v", err)
	}
}

// TestFleetHoldsReservedPorts: every address Peers reserves stays bound
// while the fleet is open — before its child starts, through Start's
// hand-over, and in the child, which serves on the inherited listener.
// Close frees the ports no child took.
func TestFleetHoldsReservedPorts(t *testing.T) {
	t.Setenv("SSMFP_HARNESS_CHILD", "1")
	f, err := NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addrs, _, err := f.Peers(2)
	if err != nil {
		t.Fatal(err)
	}
	taken := func(when string) {
		t.Helper()
		for p, addr := range addrs {
			if l, err := net.Listen("tcp", addr); err == nil {
				l.Close()
				t.Fatalf("%s: slot %d's address %s was free to bind", when, p, addr)
			}
		}
	}
	taken("before any child")

	c, err := f.Start(0, "wire")
	if err != nil {
		t.Fatal(err)
	}
	var banner struct{ ID int }
	if err := c.Announce(&banner, 10*time.Second); err != nil || banner.ID != 9 {
		t.Fatalf("wire child: %+v, %v", banner, err)
	}
	taken("after slot 0's child started")
	conn, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(conn)
	conn.Close()
	if err != nil || string(b) != "w" {
		t.Fatalf("slot 0 answered %q, %v; want the child's byte", b, err)
	}
	if _, err := f.Start(0, "wire"); err == nil {
		t.Fatal("slot 0's listener was handed over twice")
	}

	f.Close()
	l, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("Close kept slot 1's unclaimed port: %v", err)
	}
	l.Close()
}
