package telemetry

import "fmt"

// Stabilization-health detector. Snap-stabilization promises correct
// service from any configuration — including one where buffers hold
// messages nobody sent and sequence state points at the future. A cluster
// *in* that regime is detectable from its counters: this detector turns a
// set of scraped series into a verdict. It deliberately reads aggregated
// Prometheus samples, not a live registry, so the same check runs against
// one node's scrape, a merged cluster scrape, and a CI-captured file.

// HealthFlagged is one triggered indicator.
type HealthFlagged struct {
	Series string  `json:"series"`
	Value  float64 `json:"value"`
	Why    string  `json:"why"`
}

// HealthReport is the detector's verdict over one set of samples.
type HealthReport struct {
	Healthy bool            `json:"healthy"`
	Flags   []HealthFlagged `json:"flags,omitempty"`
}

// healthChecks are the counter series whose nonzero value indicates
// pre-stabilization (or otherwise anomalous) behavior somewhere in the
// scrape's scope.
var healthChecks = []struct {
	series string
	why    string
}{
	{SeriesPhantomDeliveries, "phantom deliveries: messages delivered that no plan entry sent"},
	{SeriesInvalidDeliveries, "invalid messages delivered: corrupted initial buffer state reached a destination"},
	{SeriesWatermarkViolations, "watermark violations: handshake acks referencing sequences never issued"},
	{SeriesSecureRejected, "secure rejections: frames, handshakes or admin calls refused by the trust domain — someone is probing the cluster"},
}

// SecureFlag reports whether f is the secure-rejection indicator — the
// one flag a byzantine-injection judge *expects* to fire while any other
// flag stays a violation.
func (f HealthFlagged) SecureFlag() bool { return f.Series == SeriesSecureRejected }

// CheckHealth evaluates the stabilization-health indicators over samples
// (typically the union of every node's scrape).
func CheckHealth(samples []PromSample) HealthReport {
	rep := HealthReport{Healthy: true}
	for _, c := range healthChecks {
		if v := SumSeries(samples, c.series); v > 0 {
			rep.Healthy = false
			rep.Flags = append(rep.Flags, HealthFlagged{Series: c.series, Value: v, Why: c.why})
		}
	}
	return rep
}

// String renders the report for logs.
func (r HealthReport) String() string {
	if r.Healthy {
		return "healthy"
	}
	s := fmt.Sprintf("%d stabilization-health flags:", len(r.Flags))
	for _, f := range r.Flags {
		s += fmt.Sprintf(" [%s=%g: %s]", f.Series, f.Value, f.Why)
	}
	return s
}
