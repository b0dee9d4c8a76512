package telemetry

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestEmitterWritesSchemaLines(t *testing.T) {
	r := New()
	r.Counter(SeriesDeliveries, "").Add(7)
	var buf bytes.Buffer
	e := NewEmitter(r, "node3", &buf, 10*time.Millisecond)
	e.Start()
	time.Sleep(35 * time.Millisecond)
	e.Close()

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		snap, err := ParseSnapshot(sc.Bytes())
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if snap.Node != "node3" || snap.Schema != SnapshotSchema {
			t.Fatalf("line %d: node=%q schema=%q", lines, snap.Node, snap.Schema)
		}
		if int64(lines) != snap.Seq {
			t.Fatalf("line %d has seq %d — stream not monotone from 1", lines, snap.Seq)
		}
		found := false
		for _, s := range snap.Samples {
			if s.Name == SeriesDeliveries && s.Value == 7 {
				found = true
			}
		}
		if !found {
			t.Fatalf("line %d: registered counter missing from snapshot", lines)
		}
	}
	if lines < 2 {
		t.Fatalf("only %d JSONL lines after 3 periods + final frame", lines)
	}
}

func TestParseSnapshotRejectsForeignSchema(t *testing.T) {
	if _, err := ParseSnapshot([]byte(`{"schema":"ssmfp-telemetry/v999","node":"x"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ParseSnapshot([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCheckHealth(t *testing.T) {
	healthy := []PromSample{
		{Name: SeriesDeliveries, Value: 100},
		{Name: SeriesPhantomDeliveries, Value: 0},
	}
	if rep := CheckHealth(healthy); !rep.Healthy || len(rep.Flags) != 0 {
		t.Fatalf("healthy samples flagged: %v", rep)
	}
	sick := []PromSample{
		{Name: SeriesPhantomDeliveries, Value: 2},
		{Name: SeriesWatermarkViolations, Value: 1},
		{Name: SeriesDeliveries, Value: 5},
	}
	rep := CheckHealth(sick)
	if rep.Healthy || len(rep.Flags) != 2 {
		t.Fatalf("want 2 flags, got %v", rep)
	}
	if !strings.Contains(rep.String(), SeriesPhantomDeliveries) {
		t.Fatalf("String() omits the flagged series: %s", rep.String())
	}
}
