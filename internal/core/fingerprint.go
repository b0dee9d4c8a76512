package core

import (
	"fmt"
	"strings"

	sm "ssmfp/internal/statemodel"
)

// Fingerprint renders a configuration of composed Nodes canonically: equal
// configurations (routing tables, buffers, queues, higher-layer state)
// produce equal strings. It is the state identity used by the exhaustive
// explorer (internal/explore) to deduplicate the reachable state space.
func Fingerprint(cfg []sm.State) string {
	var sb strings.Builder
	for p, s := range cfg {
		n := s.(*Node)
		fmt.Fprintf(&sb, "p%d[", p)
		sb.WriteString("rt:")
		for d := range n.RT.Dist {
			fmt.Fprintf(&sb, "%d>%d;", n.RT.Dist[d], n.RT.Parent[d])
		}
		fmt.Fprintf(&sb, " rq:%v seq:%d pd:", n.FW.Request, n.FW.NextSeq)
		for _, out := range n.FW.Pending {
			fmt.Fprintf(&sb, "%s>%d;", out.Payload, out.Dest)
		}
		for d := range n.FW.Dests {
			ds := n.FW.Dests[d]
			if ds.BufR == nil && ds.BufE == nil && len(ds.Queue) == 0 {
				continue
			}
			fmt.Fprintf(&sb, " d%d:%s/%s/q%v", d, fingerprintMsg(ds.BufR), fingerprintMsg(ds.BufE), ds.Queue)
		}
		sb.WriteString("] ")
	}
	return sb.String()
}

func fingerprintMsg(m *Message) string {
	if m == nil {
		return "-"
	}
	// UID and validity are part of state identity: two configurations that
	// differ only in which message occupies a buffer are different states.
	return fmt.Sprintf("(%s,%d,%d,%x,%v)", m.Payload, m.LastHop, m.Color, m.UID, m.Valid)
}
