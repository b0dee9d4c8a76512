package trace

import (
	"fmt"
	"strings"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/obs"
	sm "ssmfp/internal/statemodel"
)

// This file reconstructs Figure-3 frames from a recorded obs event stream
// instead of a live engine. Message-bearing events carry the full message
// value (obs.MsgRecord), so folding them over the header's initial
// configuration rebuilds every intermediate buffer table exactly; the
// renderer then produces byte-identical output to a live Recorder.

// DestinationRecords renders the same per-destination buffer table as
// Destination, but from the observability image of a configuration:
// per-processor buffer records and next hops for destination d. Both
// rendering paths share this code, which is what makes replays
// byte-identical to live recordings.
func (r *Renderer) DestinationRecords(bufR, bufE []*obs.MsgRecord, nextHop []graph.ProcessID, d graph.ProcessID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "destination %s:\n", r.names.of(d))
	for pp := 0; pp < r.g.N(); pp++ {
		p := graph.ProcessID(pp)
		hop := "—"
		if p != d {
			hop = r.names.of(nextHop[p])
		}
		fmt.Fprintf(&sb, "  %s: R[%-14s] E[%-14s] nextHop=%s\n",
			r.names.of(p), r.msgRec(bufR[p]), r.msgRec(bufE[p]), hop)
	}
	return sb.String()
}

// HeaderFor builds the JSONL trace header for an execution about to start
// from cfg on g: topology, display names, the traced destination, and the
// full initial configuration (next hops and buffer contents for every
// destination). Build it before stepping the engine — it snapshots cfg.
func HeaderFor(g *graph.Graph, displayNames map[graph.ProcessID]string, cfg []sm.State, scenario string, dest graph.ProcessID) obs.Header {
	nm := names(displayNames)
	n := g.N()
	h := obs.Header{
		Schema:   obs.SchemaVersion,
		Scenario: scenario,
		N:        n,
		Edges:    g.Edges(),
		Names:    make([]string, n),
		Dest:     int(dest),
		Init:     &obs.InitConfig{Procs: make([]obs.InitProc, n)},
	}
	for pp := 0; pp < n; pp++ {
		p := graph.ProcessID(pp)
		h.Names[pp] = nm.of(p)
		node := cfg[p].(*core.Node)
		ip := obs.InitProc{
			NextHop: make([]graph.ProcessID, n),
			BufR:    make([]*obs.MsgRecord, n),
			BufE:    make([]*obs.MsgRecord, n),
		}
		for d := 0; d < n; d++ {
			ip.NextHop[d] = node.RT.NextHop(graph.ProcessID(d))
			ip.BufR[d] = node.FW.Dests[d].BufR.Record()
			ip.BufE[d] = node.FW.Dests[d].BufE.Record()
		}
		h.Init.Procs[p] = ip
	}
	return h
}

// GraphFromHeader rebuilds the topology a trace was recorded on. Loader
// validation guarantees edge endpoints are in range; self-loops, duplicate
// edges and disconnected topologies are reported as errors rather than the
// panics the graph package reserves for programmer mistakes.
func GraphFromHeader(h obs.Header) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("trace: bad header topology: %v", r)
		}
	}()
	if h.N <= 0 {
		return nil, fmt.Errorf("trace: header has n = %d", h.N)
	}
	g = graph.New(h.N)
	for _, e := range h.Edges {
		g.AddEdge(e[0], e[1])
	}
	return g.Freeze(), nil
}

// NamesFromHeader rebuilds the renderer's display-name map from the header.
func NamesFromHeader(h obs.Header) map[graph.ProcessID]string {
	m := make(map[graph.ProcessID]string, len(h.Names))
	for p, s := range h.Names {
		m[graph.ProcessID(p)] = s
	}
	return m
}

// ReplayFrames folds a recorded event stream over the header's initial
// configuration and returns destination dest's frames, exactly as a live
// Recorder attached before the run would have captured them (frame 0 is
// the initial configuration). Streams containing fault injections are
// rejected: a fault corrupts state arbitrarily and is recorded by
// reference only, so the configurations after it cannot be reconstructed.
// Every event of the stream comes from a state-model engine, so each sits
// at a step of the recorded execution. Trailing events of a step the stream truncates
// before its step marker are dropped, matching a live recording stopped
// mid-run.
func ReplayFrames(r *Renderer, h obs.Header, events []obs.Event, dest graph.ProcessID) ([]Frame, error) {
	n := h.N
	if h.Init == nil || len(h.Init.Procs) != n {
		return nil, fmt.Errorf("trace: header carries no initial configuration for %d processors", n)
	}
	if int(dest) < 0 || int(dest) >= n {
		return nil, fmt.Errorf("trace: destination %d out of range [0,%d)", dest, n)
	}
	bufR := make([]*obs.MsgRecord, n)
	bufE := make([]*obs.MsgRecord, n)
	hop := make([]graph.ProcessID, n)
	for p, ip := range h.Init.Procs {
		if len(ip.NextHop) != n || len(ip.BufR) != n || len(ip.BufE) != n {
			return nil, fmt.Errorf("trace: initial configuration of processor %d is not over %d destinations", p, n)
		}
		bufR[p], bufE[p], hop[p] = ip.BufR[dest], ip.BufE[dest], ip.NextHop[dest]
	}
	render := func() string { return r.DestinationRecords(bufR, bufE, hop, dest) }
	frames := []Frame{{Step: -1, Rendered: render()}}
	var fired []string
	for _, ev := range events {
		if int(ev.Proc) < 0 || int(ev.Proc) >= n {
			return nil, fmt.Errorf("trace: event %d names processor %d out of range", ev.Seq, ev.Proc)
		}
		switch ev.Kind {
		case obs.KindFault:
			return nil, fmt.Errorf("trace: event %d is a fault injection; fault-bearing traces cannot be replayed faithfully", ev.Seq)
		case obs.KindFire:
			fired = append(fired, fmt.Sprintf("%s@%s", ev.Rule, r.names.of(ev.Proc)))
			continue
		case obs.KindStep:
			frames = append(frames, Frame{Step: ev.Step, Fired: fired, Rendered: render()})
			fired = nil
			continue
		}
		if ev.Dest != dest {
			continue
		}
		switch ev.Kind {
		case obs.KindGenerate, obs.KindForward:
			bufR[ev.Proc] = ev.Msg
		case obs.KindInternal:
			bufE[ev.Proc], bufR[ev.Proc] = ev.Msg, nil
		case obs.KindErase:
			if ev.Buf == obs.BufEmission {
				bufE[ev.Proc] = nil
			} else {
				bufR[ev.Proc] = nil
			}
		case obs.KindDeliver:
			bufE[ev.Proc] = nil
		case obs.KindRoute:
			if int(ev.To) < 0 || int(ev.To) >= n {
				return nil, fmt.Errorf("trace: event %d routes to processor %d out of range", ev.Seq, ev.To)
			}
			hop[ev.Proc] = ev.To
		}
	}
	return frames, nil
}
