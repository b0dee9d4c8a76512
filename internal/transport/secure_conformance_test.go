package transport_test

import (
	"net"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/secure"
	"ssmfp/internal/transport"
)

// secureBackend builds a loopback mutual-TLS cluster in one process: a
// fresh trust domain (one CA), one node credential and one secure.TLS
// transport per processor, composed by Multi — the TCP backend's shape
// with every connection authenticated. The whole conformance suite runs
// over it unchanged, which is the point: the secure transport is a
// drop-in backend, not a different protocol.
func secureBackend(t *testing.T, g *graph.Graph) (transport.Transport, func()) {
	t.Helper()
	ca, err := secure.GenCA("conformance-ca")
	if err != nil {
		t.Fatalf("gen CA: %v", err)
	}
	pool := ca.Pool()
	listeners := make(map[graph.ProcessID]net.Listener, g.N())
	peers := make(map[graph.ProcessID]string, g.N())
	for _, p := range g.Processors() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("bind node %d: %v", p, err)
		}
		listeners[p] = ln
		peers[p] = ln.Addr().String()
	}
	per := make(map[graph.ProcessID]transport.Transport, g.N())
	for _, p := range g.Processors() {
		cred, err := ca.IssueNode(p)
		if err != nil {
			t.Fatalf("issue node %d: %v", p, err)
		}
		tr, err := secure.NewTLS(g, secure.TLSOptions{
			Local:    p,
			Peers:    peers,
			Listener: listeners[p],
			Cred:     cred,
			Pool:     pool,
			Seed:     int64(p),
		})
		if err != nil {
			t.Fatalf("secure node %d: %v", p, err)
		}
		per[p] = tr
	}
	m := transport.NewMulti(per)
	return m, func() { m.Close() }
}

func TestSecureTLSLosslessFIFO(t *testing.T) { testLosslessFIFO(t, secureBackend) }

func TestSecureTLSOneInboxPerProcessor(t *testing.T) {
	testOneInboxPerProcessor(t, secureBackend)
}

func TestExactlyOnceOverSecureTLS(t *testing.T) {
	runExactlyOnce(t, secureBackend, msgpass.Options{Seed: 26}, 90*time.Second)
}

// Chaos composed over the secure transport: impairment is applied on the
// send side of authenticated links, so loss/dup/reorder recovery runs
// end to end over mutual TLS.
func TestExactlyOnceOverChaosSecureTLS(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-over-tls cluster is slow under -short")
	}
	mk := chaosOver(secureBackend, transport.ChaosOptions{
		Seed: 27, LossRate: 0.1, DupRate: 0.1, Jitter: time.Millisecond,
	})
	runExactlyOnce(t, mk, msgpass.Options{Seed: 27}, 120*time.Second)
}

// A partition/heal cycle over the secure backend: cut edges drop on the
// chaos layer while the TLS links stay up underneath.
func TestSecureTLSPartitionHealExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("partition-heal over tls cluster is slow under -short")
	}
	mk := chaosOver(secureBackend, transport.ChaosOptions{
		Seed: 28,
		Partitions: []transport.PartitionWindow{{
			Start: 0, Duration: 300 * time.Millisecond,
			Edges: [][2]graph.ProcessID{{0, 1}, {3, 4}},
		}},
	})
	runExactlyOnce(t, mk, msgpass.Options{Seed: 28}, 90*time.Second)
}

// TestSecureTLSLateStartAndReconnect is the TCP late-start/redial test
// over mutual TLS: the peer is down at first send (every dial's TLS
// handshake fails with the socket), comes up late, restarts, and frames
// flow again — the backoff machinery must be handshake-agnostic.
func TestSecureTLSLateStartAndReconnect(t *testing.T) {
	g := graph.Line(2)
	ca, err := secure.GenCA("latestart-ca")
	if err != nil {
		t.Fatal(err)
	}
	pool := ca.Pool()
	cred0, err := ca.IssueNode(0)
	if err != nil {
		t.Fatal(err)
	}
	cred1, err := ca.IssueNode(1)
	if err != nil {
		t.Fatal(err)
	}

	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := rsv.Addr().String()
	rsv.Close()

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[graph.ProcessID]string{0: ln0.Addr().String(), 1: addr1}
	t0, err := secure.NewTLS(g, secure.TLSOptions{
		Local: 0, Peers: peers, Listener: ln0, Cred: cred0, Pool: pool,
		BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	send := t0.Link(0, 1)
	stopPump := make(chan struct{})
	defer close(stopPump)
	go func() {
		seq := uint64(0)
		for {
			select {
			case <-stopPump:
				return
			case <-time.After(2 * time.Millisecond):
				seq++
				send.Send(offerFrame(0, 1, seq))
			}
		}
	}()

	startPeer := func() (transport.Transport, transport.Link) {
		ln1, err := net.Listen("tcp", addr1)
		if err != nil {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		t1, err := secure.NewTLS(g, secure.TLSOptions{
			Local: 1, Peers: peers, Listener: ln1, Cred: cred1, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		return t1, t1.Link(0, 1)
	}
	waitFrames := func(l transport.Link, what string) {
		select {
		case <-l.Recv():
		case <-time.After(15 * time.Second):
			t.Fatalf("no frames arrived %s", what)
		}
	}

	time.Sleep(30 * time.Millisecond)
	t1, recv := startPeer()
	waitFrames(recv, "after the peer came up late")
	t1.Close()

	time.Sleep(30 * time.Millisecond)
	t1b, recv2 := startPeer()
	defer t1b.Close()
	waitFrames(recv2, "after the peer restarted")

	if st := t0.Stats(); st.Dials < 2 {
		t.Fatalf("expected repeated dial attempts, got stats %+v", st)
	}
}
