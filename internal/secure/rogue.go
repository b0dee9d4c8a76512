package secure

import (
	"crypto/tls"
	"fmt"
	"net"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/transport"
)

// RogueCounts is the rogue's own ledger of injected traffic, by the
// rejection reason each category must earn. The byzantine judge compares
// it against the cluster's merged secure_rejected_frames scrape: every
// count here must reappear there.
type RogueCounts struct {
	// Handshake is connection attempts with an untrusted (self-signed)
	// certificate — refused before any frame is read.
	Handshake int `json:"handshake"`
	// Role is protocol frames sent under an authenticated observer
	// certificate — discarded frame-by-frame, connection kept.
	Role int `json:"role"`
	// Sender is frames whose From contradicts the certificate identity
	// (forged/replayed on behalf of a real member) — each kills its
	// connection, so the rogue spends one connection per frame.
	Sender int `json:"sender"`
	// Membership is frames from a validly-certified node identity that is
	// not part of the cluster graph — discarded, connection kept.
	Membership int `json:"membership"`
}

// Total sums all categories.
func (c RogueCounts) Total() int { return c.Handshake + c.Role + c.Sender + c.Membership }

// Rogue is a byzantine injector: a process-shaped adversary holding (a)
// a self-signed certificate from outside the trust domain, (b) a
// CA-signed observer certificate (right CA, wrong role), and (c) a
// CA-signed node certificate for a processor that is not a cluster
// member. Strike drives all three at live node transports while the
// cluster serves real load; every injected frame must surface as exactly
// one secure rejection, and none may reach the protocol layer.
type Rogue struct {
	targets     []string
	impersonate graph.ProcessID
	alienID     graph.ProcessID

	selfSigned *tls.Config // untrusted root → handshake rejection
	observer   *tls.Config // trusted, wrong role → role rejection
	alien      *tls.Config // trusted node, non-member → sender/membership

	// Timeout bounds each connection's dial + writes.
	Timeout time.Duration
}

// NewRogue arms an injector against targets (node transport addresses).
// impersonate must be a real member (its identity is forged in the
// sender-mismatch category); alienID must NOT be a member.
func NewRogue(ca *CA, impersonate, alienID graph.ProcessID, targets []string) (*Rogue, error) {
	ownCA, err := GenCA("rogue-ca")
	if err != nil {
		return nil, err
	}
	selfSigned, err := ownCA.IssueNode(impersonate)
	if err != nil {
		return nil, err
	}
	observer, err := ca.Issue("observer-rogue", RoleObserver)
	if err != nil {
		return nil, err
	}
	alien, err := ca.IssueNode(alienID)
	if err != nil {
		return nil, err
	}
	return &Rogue{
		targets:     targets,
		impersonate: impersonate,
		alienID:     alienID,
		selfSigned:  rogueClientConfig(selfSigned),
		observer:    rogueClientConfig(observer),
		alien:       rogueClientConfig(alien),
		Timeout:     5 * time.Second,
	}, nil
}

// rogueClientConfig presents cred and skips server verification — an
// adversary has no interest in authenticating its victim.
func rogueClientConfig(cred *Credential) *tls.Config {
	return &tls.Config{
		MinVersion:         tls.VersionTLS13,
		Certificates:       []tls.Certificate{cred.TLS},
		InsecureSkipVerify: true,
	}
}

// Strike runs one full injection pass: against every target, one
// handshake probe, burst role-violating frames, burst forged-sender
// frames (one connection each), and burst non-member frames. It returns
// what was actually delivered to a victim's socket — categories that
// could not even connect are not counted, so the returned ledger is an
// exact lower bound the rejection counters must meet.
func (r *Rogue) Strike(burst int) (RogueCounts, error) {
	var c RogueCounts
	for _, addr := range r.targets {
		// (1) Untrusted certificate: the TLS handshake itself must fail.
		// In TLS 1.3 the client finishes first, so the server's rejection
		// surfaces on our first read — drive the handshake and read to
		// force the alert through.
		if conn, err := net.DialTimeout("tcp", addr, r.Timeout); err == nil {
			tc := tls.Client(conn, r.selfSigned)
			tc.SetDeadline(time.Now().Add(r.Timeout))
			if err := tc.Handshake(); err == nil {
				one := make([]byte, 1)
				if _, err := tc.Read(one); err == nil {
					tc.Close()
					return c, fmt.Errorf("secure: rogue self-signed handshake to %s was accepted", addr)
				}
			}
			tc.Close()
			c.Handshake++
		}

		// (2) Wrong role: authenticate as an observer, then speak the
		// data plane. Every frame must be discarded (connection survives).
		n, err := r.inject(addr, r.observer, burst, func(i int) transport.Frame {
			return transport.Frame{
				Kind: transport.KindOffer,
				From: r.impersonate,
				Offer: transport.Offer{
					Dest: r.impersonate,
					Seq:  uint64(i),
					Msg: transport.Message{
						Payload: "byzantine-role",
						Src:     r.impersonate,
						Dest:    r.impersonate,
						UID:     ^uint64(0) - uint64(i),
						Valid:   true,
					},
				},
			}
		})
		c.Role += n
		if err != nil {
			return c, err
		}

		// (3) Forged sender: a valid node certificate claiming another
		// member's identity in Frame.From (a replayed accept — the
		// handshake frame most able to corrupt hop state). The victim
		// kills the connection on the first contradiction, so each frame
		// rides its own connection.
		for i := 0; i < burst; i++ {
			n, err := r.inject(addr, r.alien, 1, func(int) transport.Frame {
				return transport.Frame{
					Kind: transport.KindAccept,
					From: r.impersonate,
					Ack:  transport.Ack{Dest: r.impersonate, Seq: uint64(i)},
				}
			})
			c.Sender += n
			if err != nil {
				return c, err
			}
		}

		// (4) Non-member: certificate and From agree, but the identity is
		// outside the cluster graph. Replays the same cancel repeatedly.
		n, err = r.inject(addr, r.alien, burst, func(int) transport.Frame {
			return transport.Frame{
				Kind: transport.KindCancel,
				From: r.alienID,
				Ack:  transport.Ack{Dest: r.impersonate, Seq: 7},
			}
		})
		c.Membership += n
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// inject opens one TLS connection to addr and writes count frames built
// by mk, returning how many were fully written. Write errors after the
// handshake are expected mid-burst (the victim may kill the connection);
// they end the burst without failing the strike.
func (r *Rogue) inject(addr string, conf *tls.Config, count int, mk func(i int) transport.Frame) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, r.Timeout)
	if err != nil {
		return 0, nil // victim gone; nothing delivered, nothing counted
	}
	tc := tls.Client(conn, conf)
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(r.Timeout))
	if err := tc.Handshake(); err != nil {
		return 0, fmt.Errorf("secure: rogue handshake to %s: %w", addr, err)
	}
	wrote := 0
	for i := 0; i < count; i++ {
		f := mk(i)
		if _, err := transport.WriteFrame(tc, &f); err != nil {
			break
		}
		wrote++
	}
	// Half-close politely: give the kernel a moment to flush before the
	// deferred Close tears the socket down. CloseWrite signals EOF so the
	// victim's read loop drains everything we wrote.
	tc.CloseWrite()
	return wrote, nil
}
