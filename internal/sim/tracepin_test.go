package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"ssmfp/internal/core"
	"ssmfp/internal/graph"
	"ssmfp/internal/workload"
)

// The digests of the CI trace round-trip scenario's artifacts: the JSONL
// trace and the indented lifecycle report, byte for byte as
// `ssmfp-sim -topology grid -n 9 -corrupt -messages 12 -daemon
// central-random -seed 11 -trace-out run.jsonl -metrics-out life.json`
// writes them. A refactor of the observation path must keep both.
const (
	pinnedTraceSHA     = "46491653015b7af7210d252b43839c35c3fbd9079dd152fd876cbf6a9f7db61e"
	pinnedLifecycleSHA = "06e3a86b13980b519a73ec227ac55119a4f0b2814bcb2929dfd3fba8633d93d8"
)

// TestTraceFormatPinned runs the CI round-trip scenario through Run and
// compares the SHA-256 of its JSONL trace and of its lifecycle report
// JSON with the pinned digests.
func TestTraceFormatPinned(t *testing.T) {
	g := graph.Grid(3, 3)
	corrupt := core.DefaultCorrupt
	var trace bytes.Buffer
	res := Run(Scenario{
		Name:     "grid-9",
		Graph:    g,
		Corrupt:  &corrupt,
		Daemon:   CentralRandom,
		Seed:     11,
		Workload: workload.RandomPairs(g, 12, rand.New(rand.NewSource(11))),
		MaxSteps: 10_000_000,
		TraceOut: &trace,
	})
	if !res.OK() || res.TraceErr != nil {
		t.Fatalf("scenario failed: %v (trace error %v)", res, res.TraceErr)
	}
	life, err := json.MarshalIndent(res.Lifecycle, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	life = append(life, '\n')
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"JSONL trace", trace.Bytes(), pinnedTraceSHA},
		{"lifecycle report", life, pinnedLifecycleSHA},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest = %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
}
