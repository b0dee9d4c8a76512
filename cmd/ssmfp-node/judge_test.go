package main

import (
	"strconv"
	"strings"
	"testing"

	"ssmfp/internal/graph"
	"ssmfp/internal/harness"
	"ssmfp/internal/secure"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
)

// judgeShares and judgeReports are a clean three-node run: each node
// sends one message to its ring successor and receives one from its
// predecessor.
var judgeShares = map[int]int{0: 1, 1: 1, 2: 1}

func judgeReports() []harness.Report {
	return []harness.Report{
		{ID: 0, Sent: []spec.Sent{sent(10, 1)}, Delivered: []spec.Delivered{delivered(30, 0, true)}},
		{ID: 1, Sent: []spec.Sent{sent(20, 2)}, Delivered: []spec.Delivered{delivered(10, 1, true)}},
		{ID: 2, Sent: []spec.Sent{sent(30, 0)}, Delivered: []spec.Delivered{delivered(20, 2, true)}},
	}
}

func sent(uid uint64, dst graph.ProcessID) spec.Sent {
	return spec.Sent{Key: spec.Key{UID: uid}, Dst: dst}
}

func delivered(uid uint64, at graph.ProcessID, valid bool) spec.Delivered {
	return spec.Delivered{Key: spec.Key{UID: uid}, At: at, Valid: valid}
}

var judgeLedger = secure.RogueCounts{Handshake: 2, Role: 3, Sender: 4, Membership: 5}

// ledgerSamples renders per-reason rejection counters as a cluster
// scrape would carry them, split across two nodes.
func ledgerSamples(counts map[string]float64) []telemetry.PromSample {
	var out []telemetry.PromSample
	for reason, v := range counts {
		for node, share := range []float64{v - v/2, v / 2} {
			out = append(out, telemetry.PromSample{
				Name:   telemetry.SeriesSecureRejected,
				Labels: map[string]string{"reason": reason, "node": strconv.Itoa(node)},
				Value:  share,
			})
		}
	}
	return out
}

func balancedCounts() map[string]float64 {
	return map[string]float64{
		secure.ReasonHandshake:  float64(judgeLedger.Handshake),
		secure.ReasonRole:       float64(judgeLedger.Role),
		secure.ReasonSender:     float64(judgeLedger.Sender),
		secure.ReasonMembership: float64(judgeLedger.Membership),
	}
}

// TestJudgeFlagsEachViolation feeds the spawn and byzantine judges
// synthetic reports and scrapes, no forking: the clean run passes, and
// every defect produces exactly its own violation — the judges can fail,
// and fail for the right reason.
func TestJudgeFlagsEachViolation(t *testing.T) {
	cases := []struct {
		name   string
		report func(rs []harness.Report)
		counts func(c map[string]float64)
		want   string // substring of the single expected violation; "" = clean
	}{
		{name: "clean"},
		{name: "duplicate", want: "uid 10 delivered 2 times", report: func(rs []harness.Report) {
			rs[1].Delivered = append(rs[1].Delivered, rs[1].Delivered[0])
		}},
		{name: "missing", want: "uid 20 (for node 2) never delivered", report: func(rs []harness.Report) {
			rs[2].Delivered = nil
		}},
		{name: "misroute", want: "uid 20 delivered at node 0, addressed to 2", report: func(rs []harness.Report) {
			rs[0].Delivered = append(rs[0].Delivered, rs[2].Delivered...)
			rs[2].Delivered = nil
		}},
		{name: "unknown uid", want: "node 0 delivered unknown uid 99", report: func(rs []harness.Report) {
			rs[0].Delivered = append(rs[0].Delivered, delivered(99, 0, true))
		}},
		{name: "invalid delivery", want: "destination 0 received 1 invalid deliveries, bound is 0", report: func(rs []harness.Report) {
			rs[0].Delivered = append(rs[0].Delivered, delivered(77, 0, false))
		}},
		{name: "send count off plan", want: "node 0 sent 2 messages, plan says 1", report: func(rs []harness.Report) {
			rs[0].Sent = append(rs[0].Sent, sent(11, 1))
			rs[1].Delivered = append(rs[1].Delivered, delivered(11, 1, true))
		}},
		{name: "ledger over by one", want: `reason "handshake" counted 3 rejections, rogue ledger says 2`, counts: func(c map[string]float64) {
			c[secure.ReasonHandshake]++
		}},
		{name: "ledger under by one", want: `reason "role" counted 2 rejections, rogue ledger says 3`, counts: func(c map[string]float64) {
			c[secure.ReasonRole]--
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs, counts := judgeReports(), balancedCounts()
			if c.report != nil {
				c.report(rs)
			}
			if c.counts != nil {
				c.counts(counts)
			}
			got := harness.Judge(rs, judgeShares)
			books, short := harness.BalanceLedger(ledgerSamples(counts), judgeLedger)
			got = append(got, books...)
			if c.want == "" {
				if len(got) != 0 || short {
					t.Fatalf("clean run judged %q (short=%v)", got, short)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], c.want) {
				t.Fatalf("violations %q, want exactly one containing %q", got, c.want)
			}
			// The audit keeps re-scraping only while a counter runs short.
			if wantShort := c.name == "ledger under by one"; short != wantShort {
				t.Fatalf("short = %v, want %v", short, wantShort)
			}
		})
	}
}
