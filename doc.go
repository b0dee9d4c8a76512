// Package ssmfp is a complete, executable reproduction of "A
// snap-stabilizing point-to-point communication protocol in
// message-switched networks" (Cournier, Dubois, Villain — IPDPS 2009).
//
// SSMFP solves the message forwarding problem — deliver every generated
// message to its destination once and only once — starting from ANY
// initial configuration: corrupted routing tables, garbage messages in
// buffers, scrambled fairness queues. A self-stabilizing silent routing
// algorithm A runs simultaneously with priority; SSMFP's two buffers per
// destination (reception and emission), message colors in {0..Δ}, and six
// guarded rules R1–R6 guarantee that no valid message is ever lost or
// duplicated, even while A is still repairing the routes.
//
// The package offers two ways to run the protocol:
//
//   - Network: the paper's locally-shared-memory state model, executed on
//     a deterministic guarded-action engine with pluggable daemons
//     (synchronous, central, distributed, weakly fair, adversarial) —
//     the setting of the paper's proofs and of every experiment in
//     EXPERIMENTS.md.
//
//   - LiveNetwork: a message-passing port (one worker goroutine per CPU
//     serving a block of processors, Go channels as links,
//     offer/accept/cancel hop transfers with retransmission) answering
//     the paper's closing open problem with an engineering artifact that
//     keeps the exactly-once guarantee on lossy asynchronous links.
//
// Quick start:
//
//	net := ssmfp.NewNetwork(ssmfp.Grid(3, 3), ssmfp.WithCorruptStart(42))
//	net.Send(0, 8, "hello through the rubble")
//	report := net.Run()
//	fmt.Println(report)           // delivered exactly once, SP satisfied
//
// The internal packages contain the full system inventory (state-model
// engine, daemons, routing, buffer graphs, checkers, workloads, metrics,
// trace rendering, experiment harness); see DESIGN.md for the map and
// EXPERIMENTS.md for the paper-versus-measured record.
package ssmfp
