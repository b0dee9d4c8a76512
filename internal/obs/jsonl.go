package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"ssmfp/internal/graph"
)

// SchemaVersion is the JSONL trace schema this build writes and reads.
// A trace is one header line followed by one line per event; bumping the
// version is required for any change that alters how a loader must
// interpret either.
const SchemaVersion = 1

// InitProc is one processor's slice of the initial configuration: its
// next-hop vector and the per-destination buffer occupancies. Together
// with the value-carrying events this is exactly enough to fold the
// stream back into every intermediate buffer configuration (trace.Replay).
type InitProc struct {
	NextHop []graph.ProcessID `json:"nexthop"`
	BufR    []*MsgRecord      `json:"bufR"`
	BufE    []*MsgRecord      `json:"bufE"`
}

// InitConfig is the initial configuration of a recorded run, indexed by
// processor ID.
type InitConfig struct {
	Procs []InitProc `json:"procs"`
}

// Header is the first line of a JSONL trace: schema version, topology,
// display names, the focus destination (-1 = none) and the initial
// configuration the event stream folds over.
type Header struct {
	Schema   int                  `json:"schema"`
	Scenario string               `json:"scenario,omitempty"`
	N        int                  `json:"n"`
	Edges    [][2]graph.ProcessID `json:"edges"`
	Names    []string             `json:"names,omitempty"`
	Dest     int                  `json:"dest"`
	Init     *InitConfig          `json:"init,omitempty"`
}

// Sink streams events to w as JSONL, one line per event, after an initial
// header line. Observe is safe for concurrent use; errors are sticky and
// reported by Err and Flush rather than per call (a telemetry sink must
// never panic the run it observes).
type Sink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	err    error
	events int
}

// NewSink writes the header line (stamping the schema version) and returns
// a sink ready to subscribe to an engine.
func NewSink(w io.Writer, h Header) (*Sink, error) {
	h.Schema = SchemaVersion
	bw := bufio.NewWriter(w)
	line, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("obs: marshal header: %w", err)
	}
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("obs: write header: %w", err)
	}
	return &Sink{w: bw}, nil
}

// Observe appends one event line; pass it to Engine.Subscribe.
func (s *Sink) Observe(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		s.err = err
		return
	}
	s.events++
}

// Events returns how many events were written so far.
func (s *Sink) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Err returns the first write or marshal error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains the buffer and returns the sink's sticky error, if any.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Load parses and validates a JSONL trace: the header line first (schema
// version must match, topology must be coherent), then every event line
// (kinds must be known, processor fields in range, sequence numbers
// strictly increasing). It is the schema's reference validator.
func Load(r io.Reader) (Header, []Event, error) {
	var h Header
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, nil, fmt.Errorf("obs: read header: %w", err)
		}
		return h, nil, fmt.Errorf("obs: empty trace")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, fmt.Errorf("obs: parse header: %w", err)
	}
	if h.Schema != SchemaVersion {
		return h, nil, fmt.Errorf("obs: trace schema %d, this build reads %d", h.Schema, SchemaVersion)
	}
	if h.N <= 0 {
		return h, nil, fmt.Errorf("obs: header has n=%d", h.N)
	}
	inRange := func(p graph.ProcessID) bool { return p >= 0 && int(p) < h.N }
	for _, e := range h.Edges {
		if !inRange(e[0]) || !inRange(e[1]) {
			return h, nil, fmt.Errorf("obs: header edge %v out of range", e)
		}
	}
	var events []Event
	var lastSeq uint64
	line := 1
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return h, nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if !ev.Kind.Valid() {
			return h, nil, fmt.Errorf("obs: line %d: unknown event kind %q", line, ev.Kind)
		}
		if ev.Seq <= lastSeq {
			return h, nil, fmt.Errorf("obs: line %d: sequence %d not increasing (prev %d)", line, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if !inRange(ev.Proc) || !inRange(ev.Dest) {
			return h, nil, fmt.Errorf("obs: line %d: processor field out of range (proc=%d dest=%d)", line, ev.Proc, ev.Dest)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return h, nil, fmt.Errorf("obs: line %d: %w", line, err)
	}
	return h, events, nil
}

// WriteJSONL encodes a complete trace in one call — a convenience wrapper
// over Sink for already-collected event slices.
func WriteJSONL(w io.Writer, h Header, events []Event) error {
	s, err := NewSink(w, h)
	if err != nil {
		return err
	}
	for _, ev := range events {
		s.Observe(ev)
	}
	return s.Flush()
}
