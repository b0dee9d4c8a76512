package harness

import (
	"fmt"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/metrics"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/spec"
)

// Report is the one JSON line a spawned node prints on stdout: its send
// and delivery ledger, the rates and latency derived from it, and where
// its /metrics are served. Counters live on /metrics only; the judge
// scrapes them there and checks them against this ledger (CheckPeaks).
type Report struct {
	ID        int              `json:"id"`
	Sent      []spec.Sent      `json:"sent"`
	Delivered []spec.Delivered `json:"delivered"`
	Expected  int              `json:"expected"`

	// Achieved per-node rates, messages/second: sends over this node's
	// injection window, valid deliveries over the span from start to the
	// last delivery (0 when the node sent or received nothing).
	SendRate    float64 `json:"sendRate"`
	DeliverRate float64 `json:"deliverRate"`

	// Latency carries this node's delivery-latency quantiles and Hist the
	// mergeable histogram shard behind them — only when payloads carry
	// load tags with their scheduled instants (-rate mode).
	Latency *load.LatencySummary `json:"latency,omitempty"`
	Hist    *metrics.LatencyHist `json:"hist,omitempty"`

	// MetricsAddr is the node's debug-mux address; the judge scrapes
	// <addr>/metrics while the node idles on stdin.
	MetricsAddr string `json:"metricsAddr,omitempty"`
}

// NewReport assembles node id's report from the messages it sent and its
// delivery log. The node started its share of the plan at start and took
// sendWindow to inject it.
func NewReport(id int, sent []spec.Sent, expected int, log []msgpass.Delivery, start time.Time, sendWindow time.Duration) Report {
	rep := Report{ID: id, Sent: sent, Expected: expected}
	var hist metrics.LatencyHist
	var last time.Time
	valid := 0
	for _, d := range log {
		rep.Delivered = append(rep.Delivered, spec.Delivered{Key: spec.Key{UID: d.Msg.UID}, At: graph.ProcessID(id), Valid: d.Msg.Valid})
		if !d.Msg.Valid {
			continue
		}
		valid++
		if d.Time.After(last) {
			last = d.Time
		}
		if _, _, _, schedNanos, ok := load.ParseTag(d.Msg.Payload); ok {
			hist.Add(d.Time.UnixNano() - schedNanos)
		}
	}
	if len(sent) > 0 && sendWindow > 0 {
		rep.SendRate = float64(len(sent)) / sendWindow.Seconds()
	}
	if span := last.Sub(start); valid > 0 && span > 0 {
		rep.DeliverRate = float64(valid) / span.Seconds()
	}
	if hist.Count() > 0 {
		sum := load.SummarizeHist(&hist)
		rep.Latency, rep.Hist = &sum, &hist
	}
	return rep
}

// Judge checks the cross-process exactly-once promise over the nodes'
// reports: node i sent shares[i] messages, as the shared plan says, and
// the union of sends and deliveries passes a clean-start spec.Ledger
// (spawned nodes start clean). A report speaks for its own node: its
// deliveries happened there. Spawned nodes never restart, so a uid alone
// names a message.
func Judge(reports []Report, shares map[int]int) []string {
	var (
		violations []string
		sent       []spec.Sent
		delivered  []spec.Delivered
	)
	for _, r := range reports {
		if len(r.Sent) != shares[r.ID] {
			violations = append(violations, fmt.Sprintf("node %d sent %d messages, plan says %d", r.ID, len(r.Sent), shares[r.ID]))
		}
		sent = append(sent, r.Sent...)
		for _, d := range r.Delivered {
			d.At = graph.ProcessID(r.ID)
			delivered = append(delivered, d)
		}
	}
	return append(violations, spec.Fold(sent, delivered).Lines...)
}
