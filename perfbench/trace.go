package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/transport"
)

// spanName identifies a layer boundary the benchmark records a span at.
type spanName uint8

const (
	spanMsg           spanName = iota // one message, Send call to delivery (root)
	spanLoadSend                      // one msgpass.Network.Send call (R1 enqueue)
	spanTransportSend                 // one transport.Link.Send call
	spanEngineRun                     // one state-model execution (root)
	spanStep                          // one statemodel.Engine.Step call
	numSpanNames
)

var spanNames = [numSpanNames]string{"msg", "load.send", "transport.send", "engine.run", "statemodel.step"}

func (n spanName) root() bool { return n == spanMsg || n == spanEngineRun }

// span is one recorded interval. Spans sharing a key belong to one
// request — a message (keyed by its load step and tag sequence number) or
// an engine execution — whose root span is the parent of the others; key
// 0 marks a span no request caused (routing and handshake frames).
type span struct {
	name       spanName
	key        uint64
	start, end int64 // ns since the tracer's base
}

const (
	// maxStoredSpans bounds the span dump's memory; spans past it still
	// count in the per-name aggregates.
	maxStoredSpans = 1 << 18
	// maxCapturedFrames is the sample of wire frames the codec timing
	// replays.
	maxCapturedFrames = 4096
)

// tracer keeps spans in memory: exact per-name counts and durations for
// every span, and the full record of a sample of requests (every key
// divisible by keep, and one in keep of the unkeyed spans) for the dump.
type tracer struct {
	base time.Time
	keep uint64
	// step is the live workload's current load step, so a frame seen at
	// the link layer can be keyed to its message.
	step atomic.Uint64

	count   [numSpanNames]atomic.Int64
	sumNS   [numSpanNames]atomic.Int64
	unkeyed atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	frames  []transport.Frame
	nframes atomic.Int64
}

func newTracer(keep uint64) *tracer {
	return &tracer{base: time.Now(), keep: keep}
}

// reset forgets everything recorded so far, so the aggregates and the
// dump cover the measured phase only.
func (t *tracer) reset() {
	for n := range t.count {
		t.count[n].Store(0)
		t.sumNS[n].Store(0)
	}
	t.mu.Lock()
	t.spans, t.dropped, t.frames = nil, 0, nil
	t.nframes.Store(0)
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wall converts a wall-clock instant in Unix ns into the tracer's time
// base.
func (t *tracer) wall(unixNS int64) int64 { return unixNS - t.base.UnixNano() }

func (t *tracer) record(name spanName, key uint64, start, end int64) {
	t.count[name].Add(1)
	t.sumNS[name].Add(end - start)
	if key == 0 {
		if t.unkeyed.Add(1)%t.keep != 0 {
			return
		}
	} else if key%t.keep != 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{name, key, start, end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// meanNS is the mean duration of every span of one name.
func (t *tracer) meanNS(name spanName) float64 {
	c := t.count[name].Load()
	if c == 0 {
		return 0
	}
	return float64(t.sumNS[name].Load()) / float64(c)
}

// msgKey keys a load-tagged message by its load step and sequence number.
func msgKey(step uint64, seq int) uint64 { return (step+1)<<32 | uint64(uint32(seq)) }

// capture keeps a copy of the first maxCapturedFrames frames for the
// codec timing.
func (t *tracer) capture(f *transport.Frame) {
	if t.nframes.Add(1) > maxCapturedFrames {
		return
	}
	c := *f
	c.DV = slices.Clone(f.DV)
	t.mu.Lock()
	t.frames = append(t.frames, c)
	t.mu.Unlock()
}

// selfStat is one span name's mean duration and mean self time over the
// stored spans.
type selfStat struct {
	count          int
	meanNS, selfNS float64
}

// selfTimes computes, over the stored spans, each name's mean duration
// and mean self time: a root's duration minus the part of it its
// children cover, a child's whole duration.
func (t *tracer) selfTimes() [numSpanNames]selfStat {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortFunc(spans, func(a, b span) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.start - b.start)
	})
	var sum [numSpanNames]struct {
		n           int
		dur, selfNS int64
	}
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].key == spans[i].key {
			j++
		}
		group := spans[i:j]
		for _, s := range group {
			self := s.end - s.start
			if s.key != 0 && s.name.root() {
				self -= covered(s, group)
			}
			a := &sum[s.name]
			a.n++
			a.dur += s.end - s.start
			a.selfNS += self
		}
		i = j
	}
	var out [numSpanNames]selfStat
	for n, a := range sum {
		if a.n > 0 {
			out[n] = selfStat{a.n, float64(a.dur) / float64(a.n), float64(a.selfNS) / float64(a.n)}
		}
	}
	return out
}

// covered is the length of root's interval covered by the union of the
// other spans of its group, which are sorted by start.
func covered(root span, group []span) int64 {
	var total, curStart, curEnd int64
	open := false
	for _, c := range group {
		if c.name.root() {
			continue
		}
		s, e := max(c.start, root.start), min(c.end, root.end)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// dump writes the stored spans as JSON lines and returns the file path.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[uint64]string{}
	for _, s := range t.spans {
		if s.name.root() {
			roots[s.key] = spanNames[s.name]
		}
	}
	type line struct {
		Name    string `json:"name"`
		Key     uint64 `json:"key"`
		Parent  string `json:"parent,omitempty"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for _, s := range t.spans {
		l := line{Name: spanNames[s.name], Key: s.key, StartNS: s.start, EndNS: s.end}
		if !s.name.root() && s.key != 0 {
			l.Parent = roots[s.key]
		}
		if err := enc.Encode(l); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// tracedTransport is a pass-through Transport decorator that records a
// transport.send span around every Link.Send and captures a sample of the
// frames. Frames cross it unchanged.
type tracedTransport struct {
	transport.Transport
	tr *tracer

	mu    sync.Mutex
	links map[[2]graph.ProcessID]*tracedLink
}

func newTracedTransport(inner transport.Transport, tr *tracer) *tracedTransport {
	return &tracedTransport{Transport: inner, tr: tr, links: map[[2]graph.ProcessID]*tracedLink{}}
}

// Link wraps the inner link once per edge, so repeated calls return the
// same Link as the Transport contract requires.
func (t *tracedTransport) Link(from, to graph.ProcessID) transport.Link {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [2]graph.ProcessID{from, to}
	l, ok := t.links[k]
	if !ok {
		l = &tracedLink{Link: t.Transport.Link(from, to), tr: t.tr}
		t.links[k] = l
	}
	return l
}

type tracedLink struct {
	transport.Link
	tr *tracer
}

func (l *tracedLink) Send(f transport.Frame) bool {
	start := l.tr.now()
	ok := l.Link.Send(f)
	end := l.tr.now()
	var key uint64
	if f.Kind == transport.KindOffer {
		if seq, _, _, _, tagged := load.ParseTag(f.Offer.Msg.Payload); tagged {
			key = msgKey(l.tr.step.Load(), seq)
		}
	}
	l.tr.record(spanTransportSend, key, start, end)
	l.tr.capture(&f)
	return ok
}

// codecTiming replays the captured frames through AppendFrame and
// DecodeFrame, outside the workload, and returns the mean ns per frame of
// each.
func codecTiming(frames []transport.Frame) (encodeNS, decodeNS float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	bodies := make([][]byte, len(frames))
	for i := range frames {
		bodies[i] = transport.EncodeFrame(&frames[i])
	}
	const passes = 64
	buf := make([]byte, 0, 512)
	start := time.Now()
	for p := 0; p < passes; p++ {
		for i := range frames {
			buf = transport.AppendFrame(buf[:0], &frames[i])
		}
	}
	encodeNS = float64(time.Since(start)) / float64(passes*len(frames))
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, b := range bodies {
			if _, err := transport.DecodeFrame(b); err != nil {
				return 0, 0, fmt.Errorf("decode captured frame: %w", err)
			}
		}
	}
	decodeNS = float64(time.Since(start)) / float64(passes*len(frames))
	return encodeNS, decodeNS, nil
}
