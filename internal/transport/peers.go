package transport

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"ssmfp/internal/graph"
)

// Peer address files map processor IDs to TCP addresses, one entry per
// line ("<id> <host:port>"); blank lines and #-comments are ignored.
// cmd/ssmfp-node reads one to learn where its neighbors listen, and the
// -spawn launcher writes one for the cluster it forks.

// ParsePeers reads a peer address map from r.
func ParsePeers(r io.Reader) (map[graph.ProcessID]string, error) {
	peers := make(map[graph.ProcessID]string)
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("peers line %d: want \"<id> <host:port>\", got %q", lineno, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("peers line %d: bad processor id %q", lineno, fields[0])
		}
		if _, dup := peers[graph.ProcessID(id)]; dup {
			return nil, fmt.Errorf("peers line %d: duplicate entry for processor %d", lineno, id)
		}
		peers[graph.ProcessID(id)] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("peers file is empty")
	}
	return peers, nil
}

// FormatPeers renders a peer map in the file format, sorted by ID.
func FormatPeers(peers map[graph.ProcessID]string) string {
	ids := make([]graph.ProcessID, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d %s\n", id, peers[id])
	}
	return b.String()
}

// ParsePartitions parses partition windows written "start:dur:u-v[;u-v]",
// comma-separated (cmd/ssmfp-node's -partition): from start after the
// wire is built, the listed edges are cut for dur. The empty string is no
// window.
func ParsePartitions(s string) ([]PartitionWindow, error) {
	if s == "" {
		return nil, nil
	}
	var out []PartitionWindow
	for _, spec := range strings.Split(s, ",") {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("partition %q: want start:dur:u-v[;u-v]", spec)
		}
		start, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("partition %q: %v", spec, err)
		}
		dur, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("partition %q: %v", spec, err)
		}
		if start < 0 || dur < 0 {
			return nil, fmt.Errorf("partition %q: negative start or duration", spec)
		}
		var edges [][2]graph.ProcessID
		for _, e := range strings.Split(parts[2], ";") {
			uv := strings.SplitN(e, "-", 2)
			if len(uv) != 2 {
				return nil, fmt.Errorf("partition edge %q: want u-v", e)
			}
			u, err1 := strconv.Atoi(uv[0])
			v, err2 := strconv.Atoi(uv[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("partition edge %q: want u-v", e)
			}
			edges = append(edges, [2]graph.ProcessID{graph.ProcessID(u), graph.ProcessID(v)})
		}
		out = append(out, PartitionWindow{Start: start, Duration: dur, Edges: edges})
	}
	return out, nil
}
