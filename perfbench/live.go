package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// liveSpec is one live workload: a topology, its transport backend, the
// messages each of the two closed-loop clients keeps in flight, and the
// number of messages in one load step.
type liveSpec struct {
	graph    func() *graph.Graph
	tcp      bool
	window   int
	stepMsgs int
}

var (
	// chanDense: grid-4x4 over in-process channels, 2 clients × 8 in
	// flight — the per-frame CPU path with no codec or socket cost.
	chanDense = liveSpec{graph: func() *graph.Graph { return graph.Grid(4, 4) }, window: 8, stepMsgs: 1000}
	// tcpDense: ring-8 over loopback TCP, one node transport per processor
	// behind transport.Multi — every frame crosses the codec and a socket.
	// 2 clients × 4 in flight: at 2 × 8 the loopback loop swings between
	// about 13k and 31k msgs/s from one second to the next on a 2-CPU
	// host, at 2 × 4 it holds within about 5%.
	tcpDense = liveSpec{graph: func() *graph.Graph { return graph.Ring(8) }, tcp: true, window: 4, stepMsgs: 1000}
)

const (
	// liveNets is how many network builds an untraced run spreads its
	// measured time over, so the state one build happens to settle in
	// (which P runs which node's timers, how the sockets pair up) is
	// averaged out; setup_s is the median over the builds. A traced run
	// uses one build per half, so its counters are one network's.
	liveNets = 5
	// warmupMsgs is the closed-loop warm-up step run after the all-pairs
	// probe, before the measured phase.
	warmupMsgs = 1000
	idleWindow = 300 * time.Millisecond
	drainLimit = 20 * time.Second
)

// runLive runs a live workload: untraced for the end-to-end metrics, or
// untraced then traced (half the measured time each) for the per-layer
// metrics and the tracing overhead.
func runLive(spec liveSpec, rc runConfig) (*result, error) {
	g := spec.graph()
	res := newResult()
	if !rc.traced {
		m, err := measureLive(spec, g, rc.seed, rc.measure, liveNets, nil, res)
		if err != nil {
			return nil, err
		}
		m.endToEnd(res)
		return res, nil
	}
	half := rc.measure / 2
	base, err := measureLive(spec, g, rc.seed, half, 1, nil, res)
	if err != nil {
		return nil, err
	}
	tr := newTracer(16)
	m, err := measureLive(spec, g, rc.seed, half, 1, tr, res)
	if err != nil {
		return nil, err
	}
	if err := m.perLayer(res, tr); err != nil {
		return nil, err
	}
	setOverhead(res, base.goodput(), m.goodput())
	return res, reportSpans(res, tr, rc)
}

// setOverhead records the tracing overhead: the share of untraced
// goodput the traced run lost.
func setOverhead(res *result, untraced, traced float64) {
	if untraced > 0 {
		res.set("trace.goodput_overhead_frac", (untraced-traced)/untraced, 0)
	}
	res.notef("tracing overhead: goodput %.1f msgs/s untraced, %.1f msgs/s traced", untraced, traced)
}

// reportSpans adds the per-span self times to the report and writes the
// span dump.
func reportSpans(res *result, tr *tracer, rc runConfig) error {
	for n, s := range tr.selfTimes() {
		if s.count > 0 {
			res.notef("span %-16s n=%-7d mean %10.1f us  self %10.1f us", spanNames[n], s.count, s.meanNS/1e3, s.selfNS/1e3)
		}
	}
	path, err := tr.dump(rc.outDir, rc.name, rc.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.notef("spans written to %s (%d stored, %d past the cap)", path, len(tr.spans), tr.dropped)
	return nil
}

// liveNet is one running deployment plus the benchmark's hooks into it.
type liveNet struct {
	tr   transport.Transport // the bare backend the benchmark built
	nw   *msgpass.Network
	send *sender
	rec  *recorder
}

func (n *liveNet) close() {
	n.nw.Stop()
	n.tr.Close()
}

// buildLive builds the bare transport, wraps it in the tracing decorator
// when tr is non-nil, and starts the network on it.
func buildLive(spec liveSpec, g *graph.Graph, seed int64, hops [][]int, tr *tracer) (*liveNet, error) {
	var bare transport.Transport
	if spec.tcp {
		var err error
		if bare, err = newTCPCluster(g, seed); err != nil {
			return nil, err
		}
	} else {
		bare = transport.NewChan(g, transport.DefaultDepth)
	}
	wire := bare
	if tr != nil {
		wire = newTracedTransport(bare, tr)
	}
	rec := &recorder{tracer: tr, hops: hops}
	nw := msgpass.New(g, msgpass.Options{
		Seed:              seed,
		Transport:         wire,
		OnDeliver:         rec.onDeliver,
		DiscardDeliveries: true,
		HoldStamp:         load.AddHold,
	})
	nw.Start()
	return &liveNet{tr: bare, nw: nw, send: &sender{nw: nw, tracer: tr}, rec: rec}, nil
}

// newTCPCluster is a loopback TCP deployment in one process: one node
// transport per processor, listeners bound first so every address is known
// before any transport starts.
func newTCPCluster(g *graph.Graph, seed int64) (transport.Transport, error) {
	per := make(map[graph.ProcessID]transport.Transport, g.N())
	listeners := make(map[graph.ProcessID]net.Listener, g.N())
	peers := make(map[graph.ProcessID]string, g.N())
	for _, p := range g.Processors() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("bind node %d: %w", p, err)
		}
		listeners[p] = ln
		peers[p] = ln.Addr().String()
	}
	for _, p := range g.Processors() {
		t, err := transport.NewTCP(g, transport.TCPOptions{
			Local: p, Peers: peers, Listener: listeners[p], Seed: seed + int64(p),
		})
		if err != nil {
			// Transports built so far own their listeners; close the rest.
			for q, l := range listeners {
				if per[q] == nil {
					l.Close()
				}
			}
			for _, t := range per {
				t.Close()
			}
			return nil, fmt.Errorf("tcp node %d: %w", p, err)
		}
		per[p] = t
	}
	return transport.NewMulti(per), nil
}

// sender is the load.Network the drivers send through: it counts
// successful sends and, traced, records a load.send span around each
// msgpass.Network.Send call.
type sender struct {
	nw     *msgpass.Network
	tracer *tracer
	sent   atomic.Int64
}

func (s *sender) Send(src graph.ProcessID, payload string, dst graph.ProcessID) (uint64, error) {
	if s.tracer == nil {
		uid, err := s.nw.Send(src, payload, dst)
		if err == nil {
			s.sent.Add(1)
		}
		return uid, err
	}
	start := s.tracer.now()
	uid, err := s.nw.Send(src, payload, dst)
	end := s.tracer.now()
	var key uint64
	if seq, _, _, _, ok := load.ParseTag(payload); ok {
		key = msgKey(s.tracer.step.Load(), seq)
	}
	s.tracer.record(spanLoadSend, key, start, end)
	if err == nil {
		s.sent.Add(1)
	}
	return uid, err
}

func (s *sender) QueueDepths() []msgpass.QueueDepth { return s.nw.QueueDepths() }

// Telemetry hands load.Run the registry for its park-event counts.
func (s *sender) Telemetry() *telemetry.Registry { return s.nw.Telemetry() }

// recorder is the network's OnDeliver hook: it records every measured
// delivery into the current step's book without allocating, then passes
// the delivery on to the load collector.
type recorder struct {
	hook   load.Hook
	book   atomic.Pointer[stepBook]
	tracer *tracer
	hops   [][]int
}

// stepBook holds one load step's raw per-message samples, indexed by the
// load-tag sequence number. Only the first delivery of a sequence writes
// its slots (seen guards them), so the node goroutines never write the
// same slot.
type stepBook struct {
	step      uint64
	seen      []atomic.Int32
	e2e       []int64
	hold      []int64
	deliver   []int64
	hops      atomic.Int64
	misrouted atomic.Int64
	unknown   atomic.Int64
}

// newStepBook sizes a book for n messages; the attribution slots (hold,
// deliver) exist in traced runs only.
func newStepBook(step uint64, n int, traced bool) *stepBook {
	b := &stepBook{step: step, seen: make([]atomic.Int32, n), e2e: make([]int64, n)}
	if traced {
		b.hold, b.deliver = make([]int64, n), make([]int64, n)
	}
	return b
}

func (r *recorder) onDeliver(d msgpass.Delivery) {
	if b := r.book.Load(); b != nil && d.Msg.Valid {
		if seq, src, dst, sentNS, ok := load.ParseTag(d.Msg.Payload); ok {
			r.observe(b, d, seq, src, dst, sentNS)
		}
	}
	r.hook.OnDeliver(d)
}

func (r *recorder) observe(b *stepBook, d msgpass.Delivery, seq int, src, dst graph.ProcessID, sentNS int64) {
	if seq < 0 || seq >= len(b.seen) {
		b.unknown.Add(1)
		return
	}
	if d.At != dst {
		b.misrouted.Add(1)
	}
	if b.seen[seq].Add(1) != 1 {
		return
	}
	end := d.Time.UnixNano()
	b.e2e[seq] = end - sentNS
	if b.hold != nil {
		b.hold[seq], _ = load.ParseTagHold(d.Msg.Payload)
		b.deliver[seq] = d.DeliverWaitNS
	}
	if int(src) < len(r.hops) && int(dst) < len(r.hops) {
		b.hops.Add(int64(r.hops[src][dst]))
	}
	if t := r.tracer; t != nil {
		t.record(spanMsg, msgKey(b.step, seq), t.wall(sentNS), t.wall(end))
	}
}

// liveMeasure is what one measured phase of a live workload collected.
type liveMeasure struct {
	setups    []float64     // seconds per build
	steps     []figures     // one per load step
	samples   int           // latency samples behind the per-step quantiles
	cpu       time.Duration // process CPU over the load steps
	hold      []int64
	deliver   []int64
	wire      []int64
	delivered int
	hops      int64
	rss       float64
	idleCores float64

	before, after counters
	peakInbox     int
	peakPending   int
	peakParked    int
	codecEncNS    float64
	codecDecNS    float64
}

// figures are one load step's goodput and exact latency quantiles (a
// step's 1000 samples leave ten beyond its p99).
type figures struct {
	goodput, p50NS, p99NS float64
}

// counters is a snapshot of the cumulative counters the per-layer metrics
// are deltas of.
type counters struct {
	stats       msgpass.Stats
	retransmits int64
	parkEvents  int64
	mem         runtime.MemStats
}

func snapshot(nw *msgpass.Network) counters {
	var c counters
	c.stats = nw.Stats()
	c.retransmits, _ = nw.Telemetry().Value(telemetry.SeriesRetransmits)
	c.parkEvents, _ = nw.Telemetry().Value(telemetry.SeriesParkEvents)
	runtime.ReadMemStats(&c.mem)
	return c
}

// measureLive spreads dur of closed-loop load steps over nets builds of
// the network, timing each build up to the end of its warm-up, and runs
// on until every client pair has had a step. Correctness failures are
// recorded in res. With a tracer, nets must be 1: the per-layer counters
// are deltas of that one network's.
func measureLive(spec liveSpec, g *graph.Graph, seed int64, dur time.Duration, nets int, tr *tracer, res *result) (*liveMeasure, error) {
	// The client processors change every load step, cycling through a
	// seeded permutation of all pairs, so every run measures the same mix
	// of placements and its figures do not hinge on one lucky pair.
	rng := rand.New(rand.NewSource(seed))
	var pairs [][]graph.ProcessID
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			pairs = append(pairs, []graph.ProcessID{graph.ProcessID(a), graph.ProcessID(b)})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	hops := make([][]int, g.N())
	for p := range hops {
		hops[p] = make([]int, g.N())
		for q := range hops[p] {
			hops[p][q] = g.Dist(graph.ProcessID(p), graph.ProcessID(q))
		}
	}
	m := &liveMeasure{}
	step := uint64(0)
	for i := 0; i < nets; i++ {
		start := time.Now()
		net, err := buildLive(spec, g, seed, hops, tr)
		if err != nil {
			return nil, err
		}
		// The warm-up sends one probe per ordered pair (routing has
		// converged once they all land), then a closed-loop step.
		rep, err := load.Run(net.send, g, &net.rec.hook, load.Config{
			Driver: load.DriverClosed, Outstanding: spec.window, Messages: warmupMsgs,
			Sources: pairs[0], Seed: rng.Int63(), Warmup: g.N() * (g.N() - 1), DrainTimeout: drainLimit,
		})
		if err != nil {
			net.close()
			return nil, err
		}
		if !rep.ExactlyOnce {
			res.violation("warm-up step not exactly-once: %v", rep.Violations)
			res.failed++
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		if tr != nil {
			cpu0, t0 := cpuTime(), time.Now()
			time.Sleep(idleWindow)
			m.idleCores = float64(cpuTime()-cpu0) / float64(time.Since(t0))
			tr.reset()
			m.before = snapshot(net.nw)
		}
		share := time.Now()
		for time.Since(share) < dur/time.Duration(nets) || (i == nets-1 && len(m.steps) < len(pairs)) {
			if err := m.step(net, spec, g, step, pairs[step%uint64(len(pairs))], rng.Int63(), tr, res); err != nil {
				net.close()
				return nil, err
			}
			step++
		}
		if tr != nil {
			m.after = snapshot(net.nw)
		}
		net.close()
	}
	m.rss = rssPeakMB()
	if tr != nil {
		var err error
		if m.codecEncNS, m.codecDecNS, err = codecTiming(tr.frames); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// step runs one closed-loop load step from the client pair sources and
// records its figures.
func (m *liveMeasure) step(net *liveNet, spec liveSpec, g *graph.Graph, step uint64, sources []graph.ProcessID,
	seed int64, tr *tracer, res *result) error {
	if tr != nil {
		tr.step.Store(step)
	}
	book := newStepBook(step, spec.stepMsgs, tr != nil)
	net.rec.book.Store(book)
	net.send.sent.Store(0)
	cpu0 := cpuTime()
	rep, err := load.Run(net.send, g, &net.rec.hook, load.Config{
		Driver: load.DriverClosed, Outstanding: spec.window, Messages: spec.stepMsgs,
		Sources: sources, Seed: seed, DrainTimeout: drainLimit,
	})
	cpu := cpuTime() - cpu0
	net.rec.book.Store(nil)
	if err != nil {
		return err
	}
	m.cpu += cpu
	lat := m.checkStep(res, step, &rep, book, int(net.send.sent.Load()))
	if rep.Delivered > 0 {
		q := quantiles(lat, 0.50, 0.99)
		m.steps = append(m.steps, figures{goodput: rep.AchievedRate, p50NS: float64(q[0]), p99NS: float64(q[1])})
		m.samples += len(lat)
	}
	m.peakInbox = max(m.peakInbox, rep.Queues.PeakInbox)
	m.peakPending = max(m.peakPending, rep.Queues.PeakPending)
	m.peakParked = max(m.peakParked, rep.Queues.PeakParked)
	return nil
}

// checkStep verifies one load step two ways — the load collector's
// exactly-once verdict, and the benchmark's own count of sends against
// per-sequence deliveries — folds any failure into res, and returns the
// latency samples of the messages delivered exactly once.
func (m *liveMeasure) checkStep(res *result, step uint64, rep *load.StepReport, b *stepBook, sent int) []int64 {
	res.attempted += rep.Messages
	lost, dup := 0, 0
	lat := b.e2e[:0] // filtered in place: the write index never passes the read index
	for seq := range b.seen {
		switch n := b.seen[seq].Load(); {
		case n == 0:
			lost++
		case n > 1:
			dup += int(n - 1)
		default:
			lat = append(lat, b.e2e[seq])
			if b.hold != nil {
				m.hold = append(m.hold, b.hold[seq])
				m.deliver = append(m.deliver, b.deliver[seq])
				m.wire = append(m.wire, max(b.e2e[seq]-b.hold[seq]-b.deliver[seq], 0))
			}
		}
	}
	bad := lost + dup + int(b.misrouted.Load()) + int(b.unknown.Load())
	if sent != rep.Messages || rep.Sent != sent || rep.Delivered != sent {
		res.violation("step %d: %d planned, %d sent, collector saw %d sent and %d delivered",
			step, rep.Messages, sent, rep.Sent, rep.Delivered)
		bad = max(bad, rep.Messages-rep.Delivered, 1)
	}
	if bad > 0 {
		res.violation("step %d: %d lost, %d duplicated, %d misrouted, %d unknown", step, lost, dup, b.misrouted.Load(), b.unknown.Load())
	}
	if !rep.ExactlyOnce {
		res.violation("step %d: collector verdict not exactly-once: %v", step, rep.Violations)
		bad = max(bad, 1)
	}
	res.failed += bad
	m.delivered += rep.Delivered
	m.hops += b.hops.Load()
	return lat
}

// endToEnd fills the untraced run's metrics: goodput and the latency
// quantiles are the better quartile of their per-step values (see
// betterQuartile), CPU per message is the whole run's — one step is too
// short for the kernel's per-thread CPU accounting.
func (m *liveMeasure) endToEnd(res *result) {
	res.set("setup_s", median(m.setups), len(m.setups))
	res.set("goodput_msgs_per_s", m.goodput(), len(m.steps))
	res.set("latency_p50_us", betterQuartile(m.stepFigure(func(s figures) float64 { return s.p50NS }), false)/1e3, m.samples)
	res.set("latency_p99_us", betterQuartile(m.stepFigure(func(s figures) float64 { return s.p99NS }), false)/1e3, m.samples)
	res.set("cpu_us_per_msg", float64(m.cpu.Microseconds())/float64(max(m.delivered, 1)), m.delivered)
	res.set("rss_peak_mb", m.rss, 0)
}

func (m *liveMeasure) goodput() float64 {
	return betterQuartile(m.stepFigure(func(s figures) float64 { return s.goodput }), true)
}

// stepFigure lists one figure of every step.
func (m *liveMeasure) stepFigure(f func(figures) float64) []float64 {
	xs := make([]float64, len(m.steps))
	for i, s := range m.steps {
		xs[i] = f(s)
	}
	return xs
}

// perLayer fills the traced run's metrics from the counter deltas, the
// raw samples and the tracer's aggregates.
func (m *liveMeasure) perLayer(res *result, tr *tracer) error {
	if m.delivered == 0 {
		return fmt.Errorf("no message delivered in the traced phase")
	}
	n := float64(m.delivered)
	b, a := m.before, m.after
	per := func(d int) float64 { return float64(d) / n }
	offers := a.stats.OffersSent - b.stats.OffersSent
	res.set("load.send_ns_mean", tr.meanNS(spanLoadSend), int(tr.count[spanLoadSend].Load()))
	res.set("load.latency_samples", float64(m.samples), 0)
	res.set("msgpass.offers_per_msg", per(offers), m.delivered)
	res.set("msgpass.accepts_per_msg", per(a.stats.AcceptsSent-b.stats.AcceptsSent), m.delivered)
	res.set("msgpass.dv_per_msg", per(a.stats.DVSent-b.stats.DVSent), m.delivered)
	res.set("msgpass.cancels_per_msg", per(a.stats.CancelsSent-b.stats.CancelsSent), m.delivered)
	if offers > 0 {
		res.set("msgpass.offer_useful_ratio", float64(m.hops)/float64(offers), offers)
	}
	res.set("msgpass.retransmits_per_msg", per(int(a.retransmits-b.retransmits)), m.delivered)
	res.set("msgpass.park_events_per_msg", per(int(a.parkEvents-b.parkEvents)), m.delivered)
	for _, c := range []struct {
		name string
		xs   []int64
	}{{"msgpass.hold_us_p50", m.hold}, {"msgpass.deliver_wait_us_p50", m.deliver}, {"msgpass.wire_us_p50", m.wire}} {
		res.set(c.name, float64(quantiles(c.xs, 0.5)[0])/1e3, len(c.xs))
	}
	res.set("msgpass.inbox_peak", float64(m.peakInbox), 0)
	res.set("msgpass.pending_peak", float64(m.peakPending), 0)
	res.set("msgpass.parked_peak", float64(m.peakParked), 0)
	res.set("msgpass.idle_cpu_cores", m.idleCores, 0)
	w0, w1 := b.stats.Wire, a.stats.Wire
	res.set("transport.frames_per_msg", float64(w1.FramesSent-w0.FramesSent)/n, m.delivered)
	res.set("transport.bytes_per_msg", float64(w1.BytesSent-w0.BytesSent)/n, m.delivered)
	res.set("transport.dropped_full_per_msg", float64(w1.DroppedFull-w0.DroppedFull)/n, m.delivered)
	res.set("transport.link_send_ns_mean", tr.meanNS(spanTransportSend), int(tr.count[spanTransportSend].Load()))
	res.set("transport.codec_encode_ns", m.codecEncNS, len(tr.frames))
	res.set("transport.codec_decode_ns", m.codecDecNS, len(tr.frames))
	res.set("transport.redials", float64(w1.Redials), 0)
	if w1.Redials > 0 {
		res.notef("transport redialed %d times: a loopback connection failed", w1.Redials)
	}
	setRuntime(res, &b.mem, &a.mem, n)
	return nil
}

// setRuntime fills the runtime group from MemStats around the measured
// span.
func setRuntime(res *result, b, a *runtime.MemStats, msgs float64) {
	res.set("runtime.alloc_bytes_per_msg", float64(a.TotalAlloc-b.TotalAlloc)/msgs, 0)
	res.set("runtime.mallocs_per_msg", float64(a.Mallocs-b.Mallocs)/msgs, 0)
	res.set("runtime.gc_cycles", float64(a.NumGC-b.NumGC), 0)
	res.set("runtime.gc_pause_ms", float64(a.PauseTotalNs-b.PauseTotalNs)/1e6, 0)
}
