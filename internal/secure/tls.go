package secure

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// TLSOptions configure a mutual-TLS node transport.
type TLSOptions struct {
	// Local is the processor this transport serves.
	Local graph.ProcessID
	// Peers maps neighbors (and Local, unless Listener is set) to dial
	// addresses, exactly as transport.TCPOptions.Peers.
	Peers map[graph.ProcessID]string
	// Listener, when non-nil, is a pre-bound *raw* listener (it is
	// wrapped with TLS here) — loopback clusters bind port-0 listeners
	// first so every address is known before any node starts.
	Listener net.Listener
	// Cred is this node's credential; it must be a node-role certificate
	// whose CN identity matches Local.
	Cred *Credential
	// Pool holds the cluster CA.
	Pool *x509.CertPool
	// Telemetry receives the rejection counters; nil builds a private
	// registry.
	Telemetry *telemetry.Registry

	// Plumbed through to the TCP layer.
	BackoffMin, BackoffMax time.Duration
	Seed                   int64
}

// DefaultPolicy is SSNTP's rule specialized to SSMFP, the role check of
// the TLS gate: every protocol frame kind — DV routing gossip and the
// offer/accept/cancel/cancelAck hop handshake — is admitted from
// node-role peers only. Operators and observers authenticate fine but
// have no business on the data plane.
func DefaultPolicy(role Role, kind transport.FrameKind) bool {
	switch kind {
	case transport.KindDV, transport.KindOffer, transport.KindAccept,
		transport.KindCancel, transport.KindCancelAck:
		return role == RoleNode
	}
	return false
}

// The rejection reasons of the secure plane, the label values of
// telemetry.SeriesSecureRejected.
const (
	ReasonHandshake  = "handshake"  // TLS handshake refused (wrong CA, expired, no role)
	ReasonRole       = "role"       // authenticated role does not admit the frame kind
	ReasonSender     = "sender"     // certificate identity contradicts Frame.From
	ReasonMembership = "membership" // valid node certificate, but not a configured peer
	ReasonAdmin      = "admin"      // authenticated role does not admit the admin verb
)

// Reasons lists every rejection reason, in the order reports render them.
var Reasons = []string{ReasonHandshake, ReasonRole, ReasonSender, ReasonMembership, ReasonAdmin}

// rejectCounters resolves the per-reason telemetry counters once.
type rejectCounters struct {
	reg *telemetry.Registry
	by  map[string]*telemetry.Counter
}

func newRejectCounters(reg *telemetry.Registry) *rejectCounters {
	if reg == nil {
		reg = telemetry.New()
	}
	rc := &rejectCounters{reg: reg, by: make(map[string]*telemetry.Counter, len(Reasons))}
	for _, reason := range Reasons {
		rc.by[reason] = reg.Counter(telemetry.SeriesSecureRejected,
			"Frames, handshakes or admin calls rejected by the trust domain.",
			telemetry.L("reason", reason))
	}
	return rc
}

func (rc *rejectCounters) inc(reason string) {
	if c, ok := rc.by[reason]; ok {
		c.Inc()
	}
}

// snapshot reads the per-reason totals back (tests and reports).
func (rc *rejectCounters) snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(rc.by))
	for reason, c := range rc.by {
		out[reason] = uint64(c.Load())
	}
	return out
}

// TLS is the secure production transport: the TCP backend's sockets,
// reconnect logic and per-link queues, with every connection upgraded to
// mutual TLS against the cluster CA and every inbound frame gated on the
// peer's certificate-attested identity before it reaches the inbox:
//
//  1. handshake — the peer must present a CA-signed, in-validity
//     certificate carrying a parseable role, or the connection dies
//     before a single frame is read (reason "handshake");
//  2. role — the frame kind must be admitted for the peer's role
//     (reason "role"; the frame is discarded, the connection lives —
//     SSNTP-style per-frame filtering);
//  3. sender — the frame's self-identified From must equal the
//     certificate's node identity; a contradiction means the stream
//     itself lies, so the connection dies (reason "sender");
//  4. membership — the authenticated sender must be a configured
//     neighbor (reason "membership"; discarded, connection lives).
//
// Order matters: the sender cross-check is only meaningful per
// connection, *before* frames reach the node's inbox — after that, a
// forged From is indistinguishable from the peer it names.
// Every rejection is counted in telemetry
// (ssmfp_secure_rejected_frames_total{reason=...}) and folded into
// telemetry.CheckHealth.
type TLS struct {
	tcp    *transport.TCP
	opts   TLSOptions
	rej    *rejectCounters
	client *tls.Config
}

// NewTLS builds and starts the secure transport for opts.Local on g.
func NewTLS(g *graph.Graph, opts TLSOptions) (*TLS, error) {
	if opts.Cred == nil || opts.Pool == nil {
		return nil, errors.New("secure: TLS transport requires a credential and a CA pool")
	}
	if opts.Cred.ID.Role != RoleNode {
		return nil, fmt.Errorf("secure: transport credential %q has role %s, want node", opts.Cred.ID.Name, opts.Cred.ID.Role)
	}
	if opts.Cred.ID.Proc != opts.Local {
		return nil, fmt.Errorf("secure: credential %q does not identify processor %d", opts.Cred.ID.Name, opts.Local)
	}
	s := &TLS{
		opts:   opts,
		rej:    newRejectCounters(opts.Telemetry),
		client: ClientConfig(opts.Cred, opts.Pool),
	}
	raw := opts.Listener
	if raw == nil {
		addr := opts.Peers[opts.Local]
		if addr == "" {
			return nil, fmt.Errorf("secure: node %d has no listen address", opts.Local)
		}
		var err error
		raw, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("secure: node %d listen: %w", opts.Local, err)
		}
	}
	server := ServerConfig(opts.Cred, opts.Pool)
	tcp, err := transport.NewTCP(g, transport.TCPOptions{
		Local:      opts.Local,
		Peers:      opts.Peers,
		Listener:   &tlsListener{Listener: raw, owner: s, conf: server},
		BackoffMin: opts.BackoffMin,
		BackoffMax: opts.BackoffMax,
		Seed:       opts.Seed,
		Dial:       s.dial,
		Inbound:    s.gate,
	})
	if err != nil {
		raw.Close()
		return nil, err
	}
	s.tcp = tcp
	return s, nil
}

// AddPeer records a peer's dial address (cluster.PeerBook).
func (s *TLS) AddPeer(q graph.ProcessID, addr string) { s.tcp.AddPeer(q, addr) }

// Link returns the operative end of the directed edge.
func (s *TLS) Link(from, to graph.ProcessID) transport.Link { return s.tcp.Link(from, to) }

// Stats sums the wire counters of the underlying sockets.
func (s *TLS) Stats() transport.Stats { return s.tcp.Stats() }

// Close stops the transport.
func (s *TLS) Close() error { return s.tcp.Close() }

// EnsureLink grows the link set at runtime.
func (s *TLS) EnsureLink(from, to graph.ProcessID) error { return s.tcp.EnsureLink(from, to) }

// DropLink shrinks the link set.
func (s *TLS) DropLink(from, to graph.ProcessID) { s.tcp.DropLink(from, to) }

// Rejections reads the per-reason rejection totals.
func (s *TLS) Rejections() map[string]uint64 { return s.rej.snapshot() }

// reject counts one rejection.
func (s *TLS) reject(reason string) { s.rej.inc(reason) }

// dial opens one outbound mutual-TLS connection; the handshake runs
// eagerly so a peer failing verification is indistinguishable from an
// unreachable one — the TCP writer's backoff handles both.
func (s *TLS) dial(addr string, timeout time.Duration) (net.Conn, error) {
	d := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(d, "tcp", addr, s.client)
	if err != nil {
		return nil, err
	}
	// The server proved chain + role; a protocol peer must specifically
	// be a node. (Operators never listen, so this only trips on a
	// misdeployed certificate.)
	id, err := IdentityOf(conn.ConnectionState().PeerCertificates[0])
	if err != nil || id.Role != RoleNode {
		s.reject(ReasonHandshake)
		conn.Close()
		if err == nil {
			err = fmt.Errorf("secure: peer at %s holds role %s, want node", addr, id.Role)
		}
		return nil, err
	}
	return conn, nil
}

// errUntrusted kills a connection whose stream can no longer be trusted.
var errUntrusted = errors.New("secure: connection identity contradicts frame sender")

// gate is the transport.TCPOptions.Inbound hook — the four checks in the
// type comment, in order. It asks tcp, not s.tcp, about membership: the
// accept loop may run it before NewTLS has stored s.tcp.
func (s *TLS) gate(tcp *transport.TCP, conn net.Conn, f *transport.Frame) error {
	sc, ok := conn.(*serverConn)
	if !ok || sc.id == nil {
		s.reject(ReasonHandshake)
		return errUntrusted
	}
	if !DefaultPolicy(sc.id.Role, f.Kind) {
		s.reject(ReasonRole)
		return transport.ErrRejectFrame
	}
	if sc.id.Proc != f.From {
		s.reject(ReasonSender)
		return errUntrusted
	}
	if !tcp.KnownSender(f.From) {
		s.reject(ReasonMembership)
		return transport.ErrRejectFrame
	}
	return nil
}

// tlsListener upgrades every accepted connection to the server side of
// the trust domain. The TLS handshake is NOT run here — Accept must stay
// prompt — but lazily, on the reader's first Read (serverConn).
type tlsListener struct {
	net.Listener
	owner *TLS
	conf  *tls.Config
}

func (ln *tlsListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: tls.Server(c, ln.conf), owner: ln.owner}, nil
}

// serverConn is one inbound connection. The handshake runs on the first
// Read — i.e. on the connection's dedicated readLoop goroutine, never on
// the accept loop — and its outcome is counted exactly once. id is only
// touched by that same goroutine (the gate runs inside readLoop), so it
// needs no lock.
type serverConn struct {
	*tls.Conn
	owner   *TLS
	id      *Identity
	counted bool
}

func (c *serverConn) Read(p []byte) (int, error) {
	if c.id == nil {
		if err := c.handshake(); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *serverConn) handshake() error {
	if err := c.Conn.Handshake(); err != nil {
		if !c.counted {
			c.counted = true
			c.owner.reject(ReasonHandshake)
		}
		return err
	}
	certs := c.Conn.ConnectionState().PeerCertificates
	if len(certs) == 0 {
		// RequireAndVerifyClientCert makes this unreachable; belt and
		// suspenders for a future config change.
		if !c.counted {
			c.counted = true
			c.owner.reject(ReasonHandshake)
		}
		return errors.New("secure: peer presented no certificate")
	}
	id, err := IdentityOf(certs[0])
	if err != nil {
		if !c.counted {
			c.counted = true
			c.owner.reject(ReasonHandshake)
		}
		return err
	}
	c.counted = true
	c.id = &id
	return nil
}

var (
	_ transport.Transport = (*TLS)(nil)
	_ transport.Elastic   = (*TLS)(nil)
)
