package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ssmfp/internal/graph"
	"ssmfp/internal/msgpass"
)

// PeerBook is the node-side address book a TCP deployment updates when an
// epoch admits a new peer: *transport.TCP implements it. The in-process
// backends need no addresses, so the Agent takes it as an optional
// dependency rather than a transport.
type PeerBook interface {
	AddPeer(p graph.ProcessID, addr string)
}

// NodeStatus is one node's (one process's) view of the cluster — its
// applied epoch, the topology under that epoch (slot count and edge set,
// enough for an operator console to reconstruct a Manager from a running
// cluster), which of its local processors run and drain, and their queue
// occupancy. The Manager merges these across nodes into a cluster status.
type NodeStatus struct {
	Epoch     uint64               `json:"epoch"`
	Slots     int                  `json:"slots"`
	Edges     [][2]graph.ProcessID `json:"edges"`
	Members   []graph.ProcessID    `json:"members"`
	Local     []graph.ProcessID    `json:"local"`
	Draining  []graph.ProcessID    `json:"draining,omitempty"`
	Delivered int                  `json:"delivered"`
	Queues    []msgpass.QueueDepth `json:"queues"`
}

// QuiesceReport answers "does this node still hold work for target?" —
// the probe the Manager polls while draining target. InFlight counts
// everything addressed to target that this node's processors still hold
// (buffers, parked offers, pending queues); Quiesced is target's own
// emptiness and is meaningful only where target is local.
type QuiesceReport struct {
	Target   graph.ProcessID `json:"target"`
	Local    bool            `json:"local"`
	Quiesced bool            `json:"quiesced"`
	InFlight int             `json:"inFlight"`
}

// Drained folds the report into one verdict: this node holds nothing for
// target, and — if target lives here — target itself holds nothing.
func (q QuiesceReport) Drained() bool {
	return q.InFlight == 0 && (!q.Local || q.Quiesced)
}

// InjectReport is the outcome of a live load injection: how many sends
// were requested, how many the network accepted, and their UIDs (the
// handles an exactly-once oracle tracks).
type InjectReport struct {
	Requested int      `json:"requested"`
	Sent      int      `json:"sent"`
	UIDs      []uint64 `json:"uids,omitempty"`
	Err       string   `json:"err,omitempty"`
}

// injectCap bounds one admin injection request; sustained load belongs to
// the load subsystem, not the operator plane.
const injectCap = 100_000

// Agent is the node side of the operator plane: it owns nothing, it
// mediates — epochs in, status out — between the admin surface and the
// local msgpass.Network. An *Agent is itself a Client, which is how an
// in-process deployment (one OS process, many Networks or one) wires the
// Manager directly to its nodes.
type Agent struct {
	net   *msgpass.Network
	peers PeerBook
}

// NewAgent wraps the local network. peers may be nil (non-TCP backends);
// when set, every applied epoch's address book is replayed into it before
// the epoch reaches the network, so links to a joiner can be established.
func NewAgent(nw *msgpass.Network, peers PeerBook) *Agent {
	return &Agent{net: nw, peers: peers}
}

// Apply compiles and applies one epoch to the local network. A stale
// sequence returns msgpass.ErrStaleEpoch — the caller decides whether
// that is an error (operator typo) or convergence (a re-broadcast the
// node already has).
func (a *Agent) Apply(e Epoch) error {
	if a.peers != nil {
		for p, addr := range e.Addrs {
			a.peers.AddPeer(p, addr)
		}
	}
	me, err := e.Build()
	if err != nil {
		return err
	}
	return a.net.ApplyEpoch(me)
}

// Status reports this node's view of the cluster.
func (a *Agent) Status() (NodeStatus, error) {
	queues := a.net.QueueDepths()
	g := a.net.Graph()
	st := NodeStatus{
		Epoch:     a.net.CurrentEpoch(),
		Slots:     g.N(),
		Edges:     g.Edges(),
		Members:   a.net.Members(),
		Local:     make([]graph.ProcessID, 0, len(queues)),
		Delivered: a.net.Delivered(),
		Queues:    queues,
	}
	for _, q := range queues {
		st.Local = append(st.Local, q.Proc)
		if a.net.Draining(q.Proc) {
			st.Draining = append(st.Draining, q.Proc)
		}
	}
	return st, nil
}

// Quiesce probes how much work addressed to target this node still holds.
func (a *Agent) Quiesce(target graph.ProcessID) (QuiesceReport, error) {
	r := QuiesceReport{Target: target, InFlight: a.net.InFlightFor(target)}
	for _, q := range a.net.QueueDepths() {
		if q.Proc == target {
			r.Local = true
		}
	}
	if r.Local {
		r.Quiesced = a.net.Quiesced(target)
	}
	return r, nil
}

// DeliveryRec is one consumed message in the node's delivery ledger —
// the record an external exactly-once judge joins across nodes. Payload
// rides along because UID streams restart with a node's incarnation
// (exactly like the handshake sequence watermarks), so a churn judge
// disambiguates by (payload, uid).
type DeliveryRec struct {
	UID     uint64          `json:"uid"`
	Src     graph.ProcessID `json:"src"`
	Dest    graph.ProcessID `json:"dest"`
	At      graph.ProcessID `json:"at"`
	Payload string          `json:"payload"`
	Valid   bool            `json:"valid"`
}

// Deliveries returns the local delivery ledger. Empty when the network
// runs with DiscardDeliveries (sustained-load deployments keep their
// ledger in the OnDeliver hook instead).
func (a *Agent) Deliveries() []DeliveryRec {
	ds := a.net.Deliveries()
	out := make([]DeliveryRec, len(ds))
	for i, d := range ds {
		out[i] = DeliveryRec{
			UID:     d.Msg.UID,
			Src:     d.Msg.Src,
			Dest:    d.Msg.Dest,
			At:      d.At,
			Payload: d.Msg.Payload,
			Valid:   d.Msg.Valid,
		}
	}
	return out
}

// Inject performs count sends src→dst with the given payload — live load
// an operator (or the spawn judge) pushes through a running cluster. It
// stops at the first refused send and reports how far it got; partial
// injection is not an error at this layer (the report carries the cause).
func (a *Agent) Inject(src, dst graph.ProcessID, count int, payload string) (InjectReport, error) {
	if count <= 0 || count > injectCap {
		return InjectReport{}, fmt.Errorf("cluster: inject count %d outside (0,%d]", count, injectCap)
	}
	rep := InjectReport{Requested: count, UIDs: make([]uint64, 0, count)}
	for i := 0; i < count; i++ {
		uid, err := a.net.Send(src, payload, dst)
		if err != nil {
			rep.Err = err.Error()
			break
		}
		rep.Sent++
		rep.UIDs = append(rep.UIDs, uid)
	}
	return rep, nil
}

// Admin HTTP surface. The handlers mount on the node's debug mux (see
// internal/obs.ServeWith) under /admin/:
//
//	POST /admin/epoch            body: Epoch JSON      → {"epoch": seq}
//	GET  /admin/status                                 → NodeStatus
//	GET  /admin/quiesce?target=N                       → QuiesceReport
//	POST /admin/inject?src=&dst=&count=&payload=       → InjectReport
//	GET  /admin/deliveries                             → []DeliveryRec
//
// A stale epoch answers 409 Conflict; malformed requests 400; everything
// else that fails 500. All bodies are JSON.

// Handler returns the admin mux, routable standalone or mounted under
// "/admin/" on a larger mux (patterns are absolute, so prefix-mounting
// the whole handler works).
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	a.Mount(mux)
	return mux
}

// Mount registers the admin routes on an existing mux.
func (a *Agent) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/admin/epoch", a.handleEpoch)
	mux.HandleFunc("/admin/status", a.handleStatus)
	mux.HandleFunc("/admin/quiesce", a.handleQuiesce)
	mux.HandleFunc("/admin/inject", a.handleInject)
	mux.HandleFunc("/admin/deliveries", a.handleDeliveries)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (a *Agent) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST an Epoch"))
		return
	}
	var e Epoch
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch err := a.Apply(e); {
	case errors.Is(err, msgpass.ErrStaleEpoch):
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": err.Error(),
			"epoch": a.net.CurrentEpoch(),
		})
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]uint64{"epoch": a.net.CurrentEpoch()})
	}
}

func (a *Agent) handleDeliveries(w http.ResponseWriter, r *http.Request) {
	ds := a.Deliveries()
	if ds == nil {
		ds = []DeliveryRec{}
	}
	writeJSON(w, http.StatusOK, ds)
}

func (a *Agent) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.Status()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func procParam(r *http.Request, name string) (graph.ProcessID, error) {
	v, err := strconv.Atoi(r.URL.Query().Get(name))
	if err != nil {
		return 0, fmt.Errorf("bad %s: %w", name, err)
	}
	return graph.ProcessID(v), nil
}

func (a *Agent) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	target, err := procParam(r, "target")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := a.Quiesce(target)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (a *Agent) handleInject(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST to inject"))
		return
	}
	src, err := procParam(r, "src")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := procParam(r, "dst")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	count := 1
	if c := r.URL.Query().Get("count"); c != "" {
		if count, err = strconv.Atoi(c); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad count: %w", err))
			return
		}
	}
	payload := r.URL.Query().Get("payload")
	if payload == "" {
		payload = "inject"
	}
	rep, err := a.Inject(src, dst, count, payload)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
