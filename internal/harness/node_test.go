package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"

	"ssmfp/internal/graph"
	"ssmfp/internal/load"
	"ssmfp/internal/msgpass"
	"ssmfp/internal/obs"
	"ssmfp/internal/secure"
	"ssmfp/internal/spec"
	"ssmfp/internal/telemetry"
	"ssmfp/internal/transport"
)

// testNodeArgs is the command line of this package's stand-in node (see
// testNode): the plan's size and seed, then the provisioned files.
func testNodeArgs(plan load.Config) NodeArgs {
	return func(p graph.ProcessID, f NodeFiles) []string {
		return []string{"node", strconv.Itoa(int(p)), strconv.Itoa(plan.Messages), strconv.FormatInt(plan.Seed, 10),
			f.Topology, f.Peers, f.CA, f.Cert, f.Key}
	}
}

// testNode stands in for ssmfp-node in the byzantine spawn judge's test
// with no more than the judge reads: one msgpass processor over mutual
// TLS on the inherited wire listener, its rejection counters on a
// loopback /metrics. It sends its share of the plan, waits for its
// deliveries, announces its Report, and idles until stdin EOF releases
// it.
func testNode(args []string) error {
	id, _ := strconv.Atoi(args[1])
	messages, _ := strconv.Atoi(args[2])
	seed, _ := strconv.ParseInt(args[3], 10, 64)
	local := graph.ProcessID(id)
	tf, err := os.Open(args[4])
	if err != nil {
		return err
	}
	g, err := graph.Parse(tf)
	tf.Close()
	if err != nil {
		return err
	}
	pf, err := os.Open(args[5])
	if err != nil {
		return err
	}
	peers, err := transport.ParsePeers(pf)
	pf.Close()
	if err != nil {
		return err
	}
	ln, err := net.FileListener(os.NewFile(ListenerFD, "wire"))
	if err != nil {
		return err
	}

	cred, err := secure.LoadCredential(args[7], args[8])
	if err != nil {
		return err
	}
	pool, err := secure.LoadPool(args[6])
	if err != nil {
		return err
	}
	reg := telemetry.New()
	tr, err := secure.NewTLS(g, secure.TLSOptions{Local: local, Peers: peers, Listener: ln,
		Cred: cred, Pool: pool, Telemetry: reg, Seed: seed})
	if err != nil {
		return err
	}
	defer tr.Close()
	nw := msgpass.New(g, msgpass.Options{Tick: 2 * time.Millisecond, Seed: seed, Transport: tr,
		Procs: []graph.ProcessID{local}, Telemetry: reg})
	nw.Start()
	defer nw.Stop()
	srv, err := obs.ServeTLSWith("127.0.0.1:0", secure.ServerConfig(cred, pool), nil, telemetry.Handler(reg))
	if err != nil {
		return err
	}
	defer srv.Close()
	var sent []spec.Sent
	expected := 0
	start := time.Now()
	for _, e := range load.BuildPlan(g, load.Config{Messages: messages, Seed: seed}) {
		if e.Dst == local {
			expected++
		}
		if e.Src == local {
			uid, err := nw.Send(local, "m", e.Dst)
			if err != nil {
				return err
			}
			sent = append(sent, spec.Sent{Key: spec.Key{UID: uid}, Dst: e.Dst})
		}
	}
	window := time.Since(start)
	nw.WaitDelivered(expected, 20*time.Second)
	rep := NewReport(id, sent, expected, nw.Deliveries(), start, window)
	rep.MetricsAddr = srv.Addr()
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	io.Copy(io.Discard, os.Stdin)
	return nil
}
