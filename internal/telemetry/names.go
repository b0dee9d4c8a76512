package telemetry

// Canonical series names of the SSMFP telemetry plane. The registry does
// not care what a metric is called, but every consumer — the load report
// builder, the spawn judge, the -scrape aggregator, the health detector,
// and the CI metrics check — keys on these, so they live here, below all
// of them. msgpass registers the protocol series; cmd binaries register
// the process-level ones.
const (
	// Protocol frame counters (label kind=dv|offer|accept|cancel|cancelAck).
	SeriesFramesSent = "ssmfp_frames_sent_total"
	// Higher-layer activity.
	SeriesSends             = "ssmfp_sends_total"
	SeriesDeliveries        = "ssmfp_deliveries_total"
	SeriesInvalidDeliveries = "ssmfp_invalid_deliveries_total"
	// Buffer occupancy gauges (labels proc, and buf=R|E for SeriesBufOccupancy).
	// The paper's central resource: one reception and one emission buffer
	// per (processor, destination).
	SeriesBufOccupancy = "ssmfp_buf_occupancy"
	SeriesPending      = "ssmfp_pending"
	SeriesParked       = "ssmfp_parked"
	// Congested-hop and retransmission counters.
	SeriesParkEvents    = "ssmfp_park_events_total"
	SeriesParkEvictions = "ssmfp_park_evictions_total"
	SeriesRetransmits   = "ssmfp_retransmits_total"
	// Stabilization-health counters: nonzero values indicate the cluster
	// is (or recently was) operating outside the stabilized regime.
	SeriesWatermarkViolations = "ssmfp_watermark_violations_total"
	SeriesPhantomDeliveries   = "ssmfp_phantom_deliveries_total"
	// Per-hop latency attribution (label component=queued|park|deliver),
	// nanoseconds. queued and park are also folded into the payload tag's
	// hold slot; deliver rides the Delivery struct.
	SeriesLatencyComponent = "ssmfp_latency_component_ns"
	// Transport-wide wire counters.
	SeriesWireFramesSent  = "ssmfp_wire_frames_sent_total"
	SeriesWireFramesRecvd = "ssmfp_wire_frames_recvd_total"
	SeriesWireBytesSent   = "ssmfp_wire_bytes_sent_total"
	SeriesWireBytesRecvd  = "ssmfp_wire_bytes_recvd_total"
	SeriesWireDropped     = "ssmfp_wire_dropped_total" // label cause=full|impair
	SeriesWireDuplicated  = "ssmfp_wire_duplicated_total"
	SeriesWireDials       = "ssmfp_wire_dials_total"
	SeriesWireRedials     = "ssmfp_wire_redials_total"
	// Per-directed-link counters (label link="u->v").
	SeriesLinkFramesSent = "ssmfp_link_frames_sent_total"
	SeriesLinkBytesSent  = "ssmfp_link_bytes_sent_total"
	SeriesLinkDropped    = "ssmfp_link_dropped_total"
	SeriesLinkQueued     = "ssmfp_link_queued"
	// Secure transport: inbound frames (or handshakes, or admin requests)
	// rejected by the trust domain, labelled by reason:
	//   handshake  — TLS handshake failed (wrong CA, expired, no role)
	//   role       — authenticated peer's role does not admit the frame kind
	//   sender     — certificate identity contradicts Frame.From
	//   membership — valid node certificate, but not a configured neighbor
	//   admin      — authenticated client's role does not admit the admin verb
	// Registered only by nodes running a secure transport; deliberately not
	// in CoreSeries so plaintext clusters scrape clean.
	SeriesSecureRejected = "ssmfp_secure_rejected_frames_total"
	// Elastic membership: the applied epoch sequence, the member count,
	// and drain progress (started/completed drains, buffered messages a
	// draining processor handed off on its way out).
	SeriesClusterEpoch    = "ssmfp_cluster_epoch"
	SeriesClusterMembers  = "ssmfp_cluster_members"
	SeriesDrainsStarted   = "ssmfp_cluster_drains_started_total"
	SeriesDrainsCompleted = "ssmfp_cluster_drains_completed_total"
	SeriesDrainHandoffs   = "ssmfp_cluster_drain_handoffs_total"
)

// CoreSeries is the minimum set a healthy node's /metrics scrape must
// contain; the spawn judge and the CI metrics check assert presence.
var CoreSeries = []string{
	SeriesFramesSent,
	SeriesSends,
	SeriesDeliveries,
	SeriesBufOccupancy,
	SeriesPending,
	SeriesParkEvents,
	SeriesRetransmits,
	SeriesLatencyComponent + "_count",
	SeriesWireFramesSent,
	SeriesClusterEpoch,
	SeriesClusterMembers,
	SeriesDrainsStarted,
	SeriesDrainsCompleted,
	SeriesDrainHandoffs,
}
