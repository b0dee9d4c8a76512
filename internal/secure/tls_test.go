package secure_test

import (
	"crypto/tls"
	"net"
	"testing"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/secure"
	"ssmfp/internal/transport"
)

// domain is a two-node loopback trust domain for rejection tests.
type domain struct {
	ca    *secure.CA
	g     *graph.Graph
	nodes map[graph.ProcessID]*secure.TLS
	addrs map[graph.ProcessID]string
}

func newDomain(t *testing.T) *domain {
	t.Helper()
	ca, err := secure.GenCA("tls-test-ca")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Line(2)
	pool := ca.Pool()
	listeners := make(map[graph.ProcessID]net.Listener, 2)
	addrs := make(map[graph.ProcessID]string, 2)
	for _, p := range g.Processors() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p] = ln
		addrs[p] = ln.Addr().String()
	}
	nodes := make(map[graph.ProcessID]*secure.TLS, 2)
	for _, p := range g.Processors() {
		cred, err := ca.IssueNode(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := secure.NewTLS(g, secure.TLSOptions{
			Local: p, Peers: addrs, Listener: listeners[p], Cred: cred, Pool: pool, Seed: int64(p),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = tr
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return &domain{ca: ca, g: g, nodes: nodes, addrs: addrs}
}

// waitRejection polls until node's rejection counter for reason reaches
// want (server-side counting is asynchronous to the client's writes).
func waitRejection(t *testing.T, node *secure.TLS, reason string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if node.Rejections()[reason] >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rejection %q stuck at %d, want >= %d (all: %v)",
		reason, node.Rejections()[reason], want, node.Rejections())
}

func TestSecureTLSAdmitsLegitimateTraffic(t *testing.T) {
	d := newDomain(t)
	recv := d.nodes[0].Link(1, 0)
	send := d.nodes[1].Link(1, 0)
	f := transport.Frame{Kind: transport.KindCancel, From: 1, Ack: transport.Ack{Dest: 0, Seq: 4}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		send.Send(f)
		select {
		case got := <-recv.Recv():
			if got.Kind != transport.KindCancel || got.From != 1 {
				t.Fatalf("delivered frame = %+v", got)
			}
			for reason, n := range d.nodes[0].Rejections() {
				if n != 0 {
					t.Fatalf("clean traffic counted a %q rejection", reason)
				}
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("legitimate frame never delivered over mutual TLS")
			}
		}
	}
}

// TestHandshakeRejectionTable drives each bad-credential shape at a live
// node and asserts the rejection it must earn.
func TestHandshakeRejectionTable(t *testing.T) {
	d := newDomain(t)
	victim := d.nodes[0]
	otherCA, err := secure.GenCA("wrong-ca")
	if err != nil {
		t.Fatal(err)
	}

	issue := func(ca *secure.CA, name string, role secure.Role, o secure.IssueOptions) *secure.Credential {
		t.Helper()
		cred, err := ca.IssueWith(name, role, o)
		if err != nil {
			t.Fatal(err)
		}
		return cred
	}

	cases := []struct {
		name   string
		cred   *secure.Credential
		frame  *transport.Frame // nil: the handshake itself must fail
		reason string
	}{
		{
			name: "expired cert",
			cred: issue(d.ca, secure.NodeName(1), secure.RoleNode, secure.IssueOptions{
				NotBefore: time.Now().Add(-2 * time.Hour),
				NotAfter:  time.Now().Add(-time.Hour),
			}),
			reason: secure.ReasonHandshake,
		},
		{
			name:   "wrong CA",
			cred:   issue(otherCA, secure.NodeName(1), secure.RoleNode, secure.IssueOptions{}),
			reason: secure.ReasonHandshake,
		},
		{
			name:   "missing role",
			cred:   issue(d.ca, secure.NodeName(1), secure.RoleNode, secure.IssueOptions{OmitRole: true}),
			reason: secure.ReasonHandshake,
		},
		{
			name: "CN/sender mismatch",
			cred: issue(d.ca, secure.NodeName(1), secure.RoleNode, secure.IssueOptions{}),
			frame: &transport.Frame{
				Kind: transport.KindAccept, From: 0, // cert says node-1
				Ack: transport.Ack{Dest: 0, Seq: 1},
			},
			reason: secure.ReasonSender,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := victim.Rejections()[tc.reason]
			raw, err := net.DialTimeout("tcp", d.addrs[0], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conn := tls.Client(raw, &tls.Config{
				MinVersion:         tls.VersionTLS13,
				Certificates:       []tls.Certificate{tc.cred.TLS},
				InsecureSkipVerify: true,
			})
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			err = conn.Handshake()
			if tc.frame == nil {
				// TLS 1.3 may surface the server's rejection on the first
				// read rather than in Handshake; either way no byte of
				// application data may flow.
				if err == nil {
					one := make([]byte, 1)
					if _, rerr := conn.Read(one); rerr == nil {
						t.Fatal("bad credential completed a handshake and read data")
					}
				}
			} else {
				if err != nil {
					t.Fatalf("handshake with valid cert failed: %v", err)
				}
				if _, err := transport.WriteFrame(conn, tc.frame); err != nil {
					t.Fatalf("frame write: %v", err)
				}
				// The victim must kill this connection: our next read ends
				// with EOF/reset, never data.
				one := make([]byte, 1)
				if _, rerr := conn.Read(one); rerr == nil {
					t.Fatal("victim kept talking to a sender-mismatched stream")
				}
			}
			waitRejection(t, victim, tc.reason, before+1)
		})
	}
}

// TestRogueAccountingInProcess is the byzantine scenario in miniature:
// a rogue strikes a live two-node domain while a legitimate link works,
// and every injected frame must land in exactly the right counter.
func TestRogueAccountingInProcess(t *testing.T) {
	d := newDomain(t)
	victim := d.nodes[0]

	rogue, err := secure.NewRogue(d.ca, 1, 9, []string{d.addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	const burst = 3
	counts, err := rogue.Strike(burst)
	if err != nil {
		t.Fatalf("strike: %v", err)
	}
	if counts.Handshake != 1 || counts.Role != burst || counts.Sender != burst || counts.Membership != burst {
		t.Fatalf("rogue ledger = %+v", counts)
	}
	waitRejection(t, victim, secure.ReasonHandshake, uint64(counts.Handshake))
	waitRejection(t, victim, secure.ReasonRole, uint64(counts.Role))
	waitRejection(t, victim, secure.ReasonSender, uint64(counts.Sender))
	waitRejection(t, victim, secure.ReasonMembership, uint64(counts.Membership))

	// The attack must not have wedged legitimate service.
	recv := d.nodes[0].Link(1, 0)
	send := d.nodes[1].Link(1, 0)
	f := transport.Frame{Kind: transport.KindCancel, From: 1, Ack: transport.Ack{Dest: 0, Seq: 9}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		send.Send(f)
		select {
		case <-recv.Recv():
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("legitimate traffic wedged after the rogue strike")
			}
		}
	}
}

func TestNewTLSRejectsMiscastCredentials(t *testing.T) {
	ca, err := secure.GenCA("miscast-ca")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Line(2)
	peers := map[graph.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"}

	op, err := ca.Issue("ops", secure.RoleOperator)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.NewTLS(g, secure.TLSOptions{Local: 0, Peers: peers, Cred: op, Pool: ca.Pool()}); err == nil {
		t.Fatal("operator credential accepted as a transport identity")
	}

	wrongNode, err := ca.IssueNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secure.NewTLS(g, secure.TLSOptions{Local: 0, Peers: peers, Cred: wrongNode, Pool: ca.Pool()}); err == nil {
		t.Fatal("node-1 credential accepted as node 0's transport identity")
	}
}

func TestDefaultPolicy(t *testing.T) {
	kinds := []transport.FrameKind{
		transport.KindDV, transport.KindOffer, transport.KindAccept,
		transport.KindCancel, transport.KindCancelAck,
	}
	for _, k := range kinds {
		if !secure.DefaultPolicy(secure.RoleNode, k) {
			t.Errorf("node refused kind %s", k)
		}
		if secure.DefaultPolicy(secure.RoleOperator, k) {
			t.Errorf("operator admitted kind %s", k)
		}
		if secure.DefaultPolicy(secure.RoleObserver, k) {
			t.Errorf("observer admitted kind %s", k)
		}
	}
	if secure.DefaultPolicy(secure.RoleNode, transport.KindInvalid) {
		t.Error("invalid kind admitted")
	}
}

// TestNewTLSGatesFramesDuringConstruction: a peer may connect and send
// while NewTLS is still building the transport, because the TCP accept
// loop runs before NewTCP returns. The gate on that connection's reader
// must ask the TCP transport it is handed, never the TLS wrapper's field
// that NewTLS stores last. Node 2 is no neighbour of node 0 on a 3-line,
// so its frame is rejected for membership. Run under -race.
func TestNewTLSGatesFramesDuringConstruction(t *testing.T) {
	ca, err := secure.GenCA("tls-construct-ca")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Line(3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cred0, err := ca.IssueNode(0)
	if err != nil {
		t.Fatal(err)
	}
	cred2, err := ca.IssueNode(2)
	if err != nil {
		t.Fatal(err)
	}
	sent, done := make(chan error, 1), make(chan struct{})
	go func() {
		conn, err := tls.Dial("tcp", ln.Addr().String(), secure.ClientConfig(cred2, ca.Pool()))
		if err != nil {
			sent <- err
			return
		}
		defer conn.Close()
		_, err = transport.WriteFrame(conn, &transport.Frame{Kind: transport.KindDV, From: 2, DV: []int{1, 1, 0}})
		sent <- err
		<-done // keep the connection up until the gate has judged the frame
	}()
	tr, err := secure.NewTLS(g, secure.TLSOptions{
		Local: 0, Peers: map[graph.ProcessID]string{0: ln.Addr().String(), 1: "127.0.0.1:1"}, Listener: ln,
		Cred: cred0, Pool: ca.Pool(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	defer close(done)
	if err := <-sent; err != nil {
		t.Fatalf("peer send: %v", err)
	}
	waitRejection(t, tr, secure.ReasonMembership, 1)
}
