package transport

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ssmfp/internal/graph"
)

func TestPeersRoundTrip(t *testing.T) {
	peers := map[graph.ProcessID]string{
		0: "127.0.0.1:7000",
		1: "127.0.0.1:7001",
		4: "10.0.0.4:9000",
	}
	got, err := ParsePeers(strings.NewReader(FormatPeers(peers)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(peers) {
		t.Fatalf("got %v", got)
	}
	for id, addr := range peers {
		if got[id] != addr {
			t.Fatalf("peer %d = %q, want %q", id, got[id], addr)
		}
	}
}

func TestPeersCommentsAndErrors(t *testing.T) {
	good := "# cluster\n0 127.0.0.1:7000\n\n1 127.0.0.1:7001\n"
	if p, err := ParsePeers(strings.NewReader(good)); err != nil || len(p) != 2 {
		t.Fatalf("good file: %v, %v", p, err)
	}
	for name, src := range map[string]string{
		"empty":        "",
		"bad id":       "x 127.0.0.1:7000\n",
		"negative id":  "-1 127.0.0.1:7000\n",
		"missing addr": "0\n",
		"extra field":  "0 host:1 extra\n",
		"duplicate":    "0 a:1\n0 b:2\n",
	} {
		if p, err := ParsePeers(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted as %v", name, p)
		}
	}
}

func TestParsePartitions(t *testing.T) {
	type edges = [][2]graph.ProcessID
	for _, c := range []struct {
		in   string
		want []PartitionWindow // nil with ok = no window
		ok   bool
	}{
		{in: "", ok: true},
		{in: "400ms:600ms:0-1", ok: true, want: []PartitionWindow{
			{Start: 400 * time.Millisecond, Duration: 600 * time.Millisecond, Edges: edges{{0, 1}}}}},
		{in: "0s:1s:0-1;2-3,2s:500ms:4-0", ok: true, want: []PartitionWindow{
			{Start: 0, Duration: time.Second, Edges: edges{{0, 1}, {2, 3}}},
			{Start: 2 * time.Second, Duration: 500 * time.Millisecond, Edges: edges{{4, 0}}}}},
		{in: "1s:1s"},               // no edges
		{in: "1s:0-1"},              // no duration
		{in: "soon:1s:0-1"},         // bad start
		{in: "1s:long:0-1"},         // bad duration
		{in: "-1s:1s:0-1"},          // negative start
		{in: "1s:-1s:0-1"},          // negative duration
		{in: "1s:1s:"},              // empty edge
		{in: "1s:1s:0"},             // edge without a second end
		{in: "1s:1s:0-x"},           // non-numeric end
		{in: "1s:1s:0-1;"},          // trailing empty edge
		{in: "1s:1s:0-1,"},          // trailing empty window
		{in: "1s:1s:0-1,2s:1s:1_2"}, // second window malformed
	} {
		got, err := ParsePartitions(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePartitions(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePartitions(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
