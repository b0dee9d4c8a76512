package msgpass

import (
	"strconv"

	"ssmfp/internal/graph"
	"ssmfp/internal/metrics"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// netTelemetry is the Network's set of pre-resolved handles into its
// telemetry registry. All registration happens here, at construction —
// the hot paths (frame sends, buffer transitions, deliveries) touch only
// the atomic handles, never the registry, keeping the bench-allocs gate
// at 0 allocs/op with telemetry always on.
type netTelemetry struct {
	reg *telemetry.Registry

	// frames is indexed by transport.FrameKind; KindInvalid stays nil.
	frames [transport.KindCancelAck + 1]*telemetry.Counter

	sends             *telemetry.Counter
	deliveries        *telemetry.Counter
	invalidDeliveries *telemetry.Counter
	phantomDeliveries *telemetry.Counter

	parkEvents    *telemetry.Counter
	parkEvictions *telemetry.Counter
	retransmits   *telemetry.Counter

	watermarkViolations *telemetry.Counter

	// Cluster membership: the current epoch sequence, the member count,
	// and drain progress. Registered unconditionally so every deployment
	// — elastic or fixed — exports the same core series.
	epoch           *telemetry.Gauge
	members         *telemetry.Gauge
	drainsStarted   *telemetry.Counter
	drainsCompleted *telemetry.Counter
	drainHandoffs   *telemetry.Counter

	// End-to-end latency attribution, node side: time a message waited in
	// the higher-layer pending queue before R1 (queued), time a parked
	// offer waited at a congested hop (park), and time between arrival at
	// the destination and the R6 consumption (deliver). The residual of
	// the collector's end-to-end measurement is wire transfer.
	compQueued  *metrics.AtomicHist
	compPark    *metrics.AtomicHist
	compDeliver *metrics.AtomicHist
}

func newNetTelemetry(reg *telemetry.Registry) *netTelemetry {
	t := &netTelemetry{reg: reg}
	for k := transport.KindDV; k <= transport.KindCancelAck; k++ {
		t.frames[k] = reg.Counter(telemetry.SeriesFramesSent,
			"Protocol frames put on the wire, by frame kind.",
			telemetry.L("kind", k.String()))
	}
	t.sends = reg.Counter(telemetry.SeriesSends,
		"Higher-layer send requests accepted by Network.Send.")
	t.deliveries = reg.Counter(telemetry.SeriesDeliveries,
		"Messages consumed at their destination (R6).")
	t.invalidDeliveries = reg.Counter(telemetry.SeriesInvalidDeliveries,
		"Deliveries of invalid messages (corrupt initial state flushing out).")
	t.phantomDeliveries = reg.Counter(telemetry.SeriesPhantomDeliveries,
		"Deliveries whose message was destined elsewhere — stabilization residue.")
	t.parkEvents = reg.Counter(telemetry.SeriesParkEvents,
		"Offers parked at a congested hop (bufR occupied on arrival).")
	t.parkEvictions = reg.Counter(telemetry.SeriesParkEvictions,
		"Parked offers evicted by a cancel before acceptance.")
	t.retransmits = reg.Counter(telemetry.SeriesRetransmits,
		"Offer/cancel retransmissions after the silence interval.")
	t.watermarkViolations = reg.Counter(telemetry.SeriesWatermarkViolations,
		"Acknowledgements for sequences this node never issued — foreign or corrupt handshake state.")
	t.epoch = reg.Gauge(telemetry.SeriesClusterEpoch,
		"Sequence number of the last applied membership epoch.")
	t.members = reg.Gauge(telemetry.SeriesClusterMembers,
		"Cluster members (slots with at least one incident link) under the current topology.")
	t.drainsStarted = reg.Counter(telemetry.SeriesDrainsStarted,
		"Local processors that entered draining state.")
	t.drainsCompleted = reg.Counter(telemetry.SeriesDrainsCompleted,
		"Local drains that completed (the processor detached from the member set).")
	t.drainHandoffs = reg.Counter(telemetry.SeriesDrainHandoffs,
		"Buffered messages a draining processor handed off to live neighbors.")
	comp := func(c string) *metrics.AtomicHist {
		return reg.Hist(telemetry.SeriesLatencyComponent,
			"Per-hop latency attribution components, nanoseconds.",
			telemetry.L("component", c))
	}
	t.compQueued = comp("queued")
	t.compPark = comp("park")
	t.compDeliver = comp("deliver")
	return t
}

// nodeGauges is one processor's occupancy levels, updated at the exact
// transition points so the peaks are event-driven high-water marks, not
// tick samples — a buffer occupied for a microsecond still registers.
type nodeGauges struct {
	bufR, bufE, pending, parked *telemetry.Gauge
}

func newNodeGauges(reg *telemetry.Registry, id graph.ProcessID) nodeGauges {
	proc := telemetry.L("proc", strconv.Itoa(int(id)))
	return nodeGauges{
		bufR: reg.Gauge(telemetry.SeriesBufOccupancy,
			"Occupied protocol buffers, by processor and buffer.",
			proc, telemetry.L("buf", "R")),
		bufE: reg.Gauge(telemetry.SeriesBufOccupancy,
			"Occupied protocol buffers, by processor and buffer.",
			proc, telemetry.L("buf", "E")),
		pending: reg.Gauge(telemetry.SeriesPending,
			"Higher-layer sends not yet accepted by R1, by processor.", proc),
		parked: reg.Gauge(telemetry.SeriesParked,
			"Offers parked while bufR is occupied, by processor.", proc),
	}
}

// registerWire exposes the transport's counters through the registry as
// read-at-snapshot funcs: the transport keeps its own atomics, and the
// scrape path (cold) walks them. Per-link series are registered for every
// outgoing link of every local node.
func (nw *Network) registerWire() {
	reg := nw.tel.reg
	reg.CounterFunc(telemetry.SeriesWireFramesSent,
		"Frames handed to the wire across the whole transport.",
		func() int64 { return int64(nw.tr.Stats().FramesSent) })
	reg.CounterFunc(telemetry.SeriesWireFramesRecvd,
		"Frames received from the wire across the whole transport.",
		func() int64 { return int64(nw.tr.Stats().FramesRecvd) })
	reg.CounterFunc(telemetry.SeriesWireBytesSent,
		"Frame bytes sent (socket bytes on TCP, encoded-equivalent in memory).",
		func() int64 { return int64(nw.tr.Stats().BytesSent) })
	reg.CounterFunc(telemetry.SeriesWireBytesRecvd,
		"Frame bytes received.",
		func() int64 { return int64(nw.tr.Stats().BytesRecvd) })
	reg.CounterFunc(telemetry.SeriesWireDropped,
		"Frames dropped by congestion (full queue, link down).",
		func() int64 { return int64(nw.tr.Stats().DroppedFull) },
		telemetry.L("cause", "full"))
	reg.CounterFunc(telemetry.SeriesWireDropped,
		"Frames dropped by injected impairment.",
		func() int64 { return int64(nw.tr.Stats().DroppedImpair) },
		telemetry.L("cause", "impair"))
	reg.CounterFunc(telemetry.SeriesWireDuplicated,
		"Extra frame copies injected by impairment.",
		func() int64 { return int64(nw.tr.Stats().Duplicated) })
	reg.CounterFunc(telemetry.SeriesWireDials,
		"Outbound connection attempts (TCP only).",
		func() int64 { return int64(nw.tr.Stats().Dials) })
	reg.CounterFunc(telemetry.SeriesWireRedials,
		"Reconnections after a working connection failed (TCP only).",
		func() int64 { return int64(nw.tr.Stats().Redials) })

	for _, p := range nw.running {
		nw.registerNodeWire(nw.nodes[p])
	}
}

// registerNodeWire registers the per-link series of one node's outgoing
// links. Registration is idempotent and keeps the first closure, so the
// closures resolve the link through the node's atomic link map at scrape
// time — after an epoch replaces the map, the same series reads the
// current link (or zero, while the edge is gone). Called at construction
// and again for nodes that join or gain links at an epoch.
func (nw *Network) registerNodeWire(n *node) {
	reg := nw.tel.reg
	p := n.id
	for _, q := range n.nbrs {
		q := q
		linkStats := func() transport.LinkStats {
			if l := (*n.outp.Load())[q]; l != nil {
				return l.Stats()
			}
			return transport.LinkStats{}
		}
		link := telemetry.L("link", strconv.Itoa(int(p))+"->"+strconv.Itoa(int(q)))
		reg.CounterFunc(telemetry.SeriesLinkFramesSent,
			"Frames sent on one directed link.",
			func() int64 { return int64(linkStats().Sent) }, link)
		reg.CounterFunc(telemetry.SeriesLinkBytesSent,
			"Frame bytes sent on one directed link.",
			func() int64 { return int64(linkStats().BytesSent) }, link)
		reg.CounterFunc(telemetry.SeriesLinkDropped,
			"Frames dropped on one directed link (congestion + impairment).",
			func() int64 { s := linkStats(); return int64(s.DroppedFull + s.DroppedImpair) }, link)
		reg.GaugeFunc(telemetry.SeriesLinkQueued,
			"Point-in-time outbound queue depth of one directed link.",
			func() int64 { return int64(linkStats().Queued) }, link)
	}
}
