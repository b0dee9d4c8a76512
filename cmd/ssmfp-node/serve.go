package main

import (
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"ssmfp/internal/cluster"
	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/obs"
	"ssmfp/internal/secure"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// nodeRuntime is one booted processor: the wire, the protocol instance,
// its telemetry registry, and the cluster agent that administers it.
// Shared by the workload mode (runNode) and the persistent service mode
// (runServe).
type nodeRuntime struct {
	g     *graph.Graph
	local graph.ProcessID
	tr    transport.Transport
	reg   *telemetry.Registry
	nw    *msgpass.Network
	agent *cluster.Agent

	// Secure mode: the credential and CA pool of the mutual-TLS wire,
	// which the debug/admin server reuses. Both nil in plaintext mode.
	cred *secure.Credential
	pool *x509.CertPool
}

// tlsConfigured reports whether any of the certificate flags is set —
// partial configuration is an error loadTLSIdentity names precisely.
func tlsConfigured(cfg config) bool {
	return cfg.caFile != "" || cfg.certFile != "" || cfg.keyFile != "" || cfg.requireTLS
}

// loadTLSIdentity loads this process's credential and the cluster CA
// from the certificate flags, insisting on all three.
func loadTLSIdentity(cfg config) (*secure.Credential, *x509.CertPool, error) {
	if cfg.caFile == "" || cfg.certFile == "" || cfg.keyFile == "" {
		return nil, nil, fmt.Errorf("TLS needs all of -ca, -cert and -key (have ca=%q cert=%q key=%q)",
			cfg.caFile, cfg.certFile, cfg.keyFile)
	}
	cred, err := secure.LoadCredential(cfg.certFile, cfg.keyFile)
	if err != nil {
		return nil, nil, fmt.Errorf("-cert/-key: %w", err)
	}
	pool, err := secure.LoadPool(cfg.caFile)
	if err != nil {
		return nil, nil, fmt.Errorf("-ca %s: %w", cfg.caFile, err)
	}
	return cred, pool, nil
}

func (rt *nodeRuntime) close() {
	rt.nw.Stop()
	rt.tr.Close()
}

// bootNode opens the TCP wire and starts the protocol for -id. It fails
// fast — naming the missing processor — when the -peers file does not
// cover this node or every neighbor the topology gives it: a node that
// cannot reach a neighbor would otherwise limp along retransmitting into
// the void until the run times out.
func bootNode(cfg config) (*nodeRuntime, error) {
	if cfg.id < 0 {
		return nil, fmt.Errorf("node mode needs -id (or use -spawn)")
	}
	if cfg.peers == "" {
		return nil, fmt.Errorf("node mode needs -peers")
	}
	g, err := loadTopology(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.id >= g.N() {
		return nil, fmt.Errorf("-id %d out of range for %d processors", cfg.id, g.N())
	}
	pf, err := os.Open(cfg.peers)
	if err != nil {
		return nil, err
	}
	peers, err := transport.ParsePeers(pf)
	pf.Close()
	if err != nil {
		return nil, err
	}
	local := graph.ProcessID(cfg.id)
	if _, ok := peers[local]; !ok {
		return nil, fmt.Errorf("-peers %s: no listen address for -id %d", cfg.peers, cfg.id)
	}
	for _, q := range g.Neighbors(local) {
		if _, ok := peers[q]; !ok {
			return nil, fmt.Errorf("-peers %s: no address for processor %d, a neighbor of -id %d in the topology",
				cfg.peers, q, cfg.id)
		}
	}

	// A launcher hands its child the wire listener it bound, so the port
	// is never free for another process to take.
	var ln net.Listener
	if cfg.listenFD > 0 {
		f := os.NewFile(uintptr(cfg.listenFD), "wire-listener")
		ln, err = net.FileListener(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-listen-fd %d: %w", cfg.listenFD, err)
		}
	}

	// The registry exists before the wire so the secure transport's
	// rejection counters land in this node's scrape, not a private one.
	reg := telemetry.New()
	rt := &nodeRuntime{g: g, local: local, reg: reg}
	var (
		tr   transport.Transport
		book cluster.PeerBook
	)
	if tlsConfigured(cfg) {
		cred, pool, err := loadTLSIdentity(cfg)
		if err != nil {
			return nil, err
		}
		sec, err := secure.NewTLS(g, secure.TLSOptions{
			Local:     local,
			Peers:     peers,
			Listener:  ln,
			Cred:      cred,
			Pool:      pool,
			Telemetry: reg,
			Seed:      cfg.seed + int64(cfg.id), // jitter streams differ per process
		})
		if err != nil {
			return nil, err
		}
		tr, book = sec, sec
		rt.cred, rt.pool = cred, pool
	} else {
		tcp, err := transport.NewTCP(g, transport.TCPOptions{
			Local:    local,
			Peers:    peers,
			Listener: ln,
			Seed:     cfg.seed + int64(cfg.id),
		})
		if err != nil {
			return nil, err
		}
		tr, book = tcp, tcp
	}
	copts, err := chaosOpts(cfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	tr = transport.Impair(tr, copts)
	nw := msgpass.New(g, msgpass.Options{
		Tick:      cfg.tick,
		Seed:      cfg.seed,
		Transport: tr,
		Procs:     []graph.ProcessID{local},
		Telemetry: reg,
		// Nodes stamp R1-queue and park waits into v3 payload tags so any
		// collector downstream can attribute end-to-end latency; foreign
		// payloads (other tag versions, plain text) pass through untouched.
		HoldStamp: load.AddHold,
	})
	nw.Start()
	// The agent feeds epoch address books into the wire's peer table, so
	// links to processors that join after boot can be dialed.
	rt.tr, rt.nw, rt.agent = tr, nw, cluster.NewAgent(nw, book)
	return rt, nil
}

// serveDebug starts the introspection endpoint with the admin surface
// mounted; nil when -http is unset. A TLS node serves it over mutual TLS
// against the same trust domain as the wire — any CA-signed role cert
// may scrape /metrics, but /admin/ sits behind the certificate-role
// guard: observers read, operators mutate, nodes get nothing.
func serveDebug(cfg config, rt *nodeRuntime) (*obs.Server, error) {
	if cfg.httpAddr == "" {
		return nil, nil
	}
	snapshot := func() any {
		return struct {
			ID     int                  `json:"id"`
			Epoch  uint64               `json:"epoch"`
			Stats  msgpass.Stats        `json:"stats"`
			Queues []msgpass.QueueDepth `json:"queues"`
		}{cfg.id, rt.nw.CurrentEpoch(), rt.nw.Stats(), rt.nw.QueueDepths()}
	}
	var (
		srv *obs.Server
		err error
	)
	if rt.cred != nil {
		srv, err = obs.ServeTLSWith(cfg.httpAddr, secure.ServerConfig(rt.cred, rt.pool),
			snapshot, telemetry.Handler(rt.reg),
			obs.Route{Pattern: "/admin/", Handler: secure.AdminGuard(rt.agent.Handler(), rt.reg)})
	} else {
		srv, err = obs.ServeWith(cfg.httpAddr, snapshot, telemetry.Handler(rt.reg),
			obs.Route{Pattern: "/admin/", Handler: rt.agent.Handler()})
	}
	if err != nil {
		return nil, fmt.Errorf("-http %s: %w", cfg.httpAddr, err)
	}
	return srv, nil
}

// startEmitter wires -telemetry-out; the returned closer is a no-op when
// the flag is unset.
func startEmitter(cfg config, reg *telemetry.Registry) (func(), error) {
	if cfg.telemetryOut == "" {
		return func() {}, nil
	}
	f, err := os.OpenFile(cfg.telemetryOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	em := telemetry.NewEmitter(reg, fmt.Sprintf("node%d", cfg.id), f, cfg.telemetryEvery)
	em.Start()
	return func() { em.Close(); f.Close() }, nil
}

// runServe runs one processor as a long-lived cluster member: no
// workload, no report — the node boots, announces itself in one
// harness.Banner line, serves the admin API on its debug mux, and
// reconfigures as epochs arrive. It exits when its
// processor is drained out of the cluster (an epoch without it detaches
// the local node) or when stdin reaches EOF (the operator's shutdown
// signal, same convention as the workload mode).
func runServe(cfg config) error {
	if cfg.httpAddr == "" {
		return fmt.Errorf("-serve needs -http (the admin API has to listen somewhere)")
	}
	rt, err := bootNode(cfg)
	if err != nil {
		return err
	}
	defer rt.close()
	srv, err := serveDebug(cfg, rt)
	if err != nil {
		return err
	}
	defer srv.Close()
	stopEmit, err := startEmitter(cfg, rt.reg)
	if err != nil {
		return err
	}
	defer stopEmit()

	banner, err := json.Marshal(harness.Banner{ID: cfg.id, AdminAddr: srv.Addr(), Epoch: rt.nw.CurrentEpoch()})
	if err != nil {
		return err
	}
	fmt.Println(string(banner))

	stdinDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stdinDone)
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stdinDone:
			return nil
		case <-tick.C:
			// Drained out: some epoch removed the local processor. Linger
			// briefly so late admin probes (the operator's final status
			// sweep) still answer, then leave.
			if rt.nw.CurrentEpoch() > 0 && len(rt.nw.QueueDepths()) == 0 {
				time.Sleep(200 * time.Millisecond)
				return nil
			}
		}
	}
}
