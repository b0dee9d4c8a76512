package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SnapshotSchema is the JSONL snapshot stream format version. Bump it on
// any field change that is not strictly additive.
const SnapshotSchema = "ssmfp-telemetry/v1"

// Snapshot is one line of the JSONL stream: a self-describing image of a
// registry (or an aggregation of several) at one instant.
type Snapshot struct {
	Schema    string   `json:"schema"`
	Node      string   `json:"node"` // "node3", or "cluster" for aggregates
	Seq       int64    `json:"seq"`  // per-emitter monotone
	UnixNanos int64    `json:"unix_nanos"`
	Samples   []Sample `json:"samples"`
}

// Snap captures the registry under a node name and sequence number.
func Snap(r *Registry, node string, seq int64) Snapshot {
	return Snapshot{
		Schema:    SnapshotSchema,
		Node:      node,
		Seq:       seq,
		UnixNanos: time.Now().UnixNano(),
		Samples:   r.Snapshot(),
	}
}

// Emitter periodically writes registry snapshots to a writer as JSONL,
// one line per period: the file form of the telemetry plane that /metrics
// serves live. Emission is a cold path: it allocates freely, off the
// protocol goroutines.
type Emitter struct {
	reg    *Registry
	node   string
	w      io.Writer
	period time.Duration

	seq  int64
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewEmitter builds an emitter writing to w. Start begins the stream.
func NewEmitter(reg *Registry, node string, w io.Writer, period time.Duration) *Emitter {
	if period <= 0 {
		period = time.Second
	}
	return &Emitter{reg: reg, node: node, w: w, period: period, stop: make(chan struct{})}
}

// Start launches the periodic emission goroutine.
func (e *Emitter) Start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(e.period)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.EmitOnce()
			}
		}
	}()
}

// EmitOnce writes one snapshot immediately (also used by Close for the
// final frame, so a short run still produces at least one line).
func (e *Emitter) EmitOnce() {
	e.seq++
	snap := Snap(e.reg, e.node, e.seq)
	line, err := json.Marshal(snap)
	if err != nil {
		return
	}
	e.w.Write(append(line, '\n'))
}

// Close stops the goroutine and emits one final snapshot.
func (e *Emitter) Close() {
	e.once.Do(func() {
		close(e.stop)
		e.wg.Wait()
		e.EmitOnce()
	})
}

// ParseSnapshot decodes one JSONL line and validates its schema.
func ParseSnapshot(line []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(line, &s); err != nil {
		return s, err
	}
	if s.Schema != SnapshotSchema {
		return s, &SchemaError{Got: s.Schema}
	}
	return s, nil
}

// SchemaError reports a snapshot line of a foreign schema version.
type SchemaError struct{ Got string }

func (e *SchemaError) Error() string {
	return "telemetry: snapshot schema " + e.Got + ", want " + SnapshotSchema
}
