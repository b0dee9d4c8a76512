package msgpass

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"ssmfp/internal/graph"
)

// worker is one executor of a Network: a goroutine serving a contiguous
// block of the running processors in turn, so a frame between two of its
// nodes crosses no goroutine. An epoch hands the nodes to fresh workers.
type worker struct {
	nw    *Network
	nodes []*node

	// wake (capacity 1) is signalled by the nodes' arrival hooks, Send,
	// the timer, pauseAll and Stop; the worker blocks on it only after a
	// turn that handled no frame, so no signal is lost. pause and quit are
	// read before every node, so a barrier or Stop lands within one burst.
	wake  chan struct{}
	pause atomic.Pointer[pauseReq]
	quit  atomic.Bool

	// deadlines is a min-heap on due of the nodes' retransmissions and
	// gossip; one timer is armed for its top (armedAt; MaxInt64 if unset).
	deadlines []deadline
	timer     timer
	armedAt   int64
}

// deadline is one timed action of node n: the retransmission of dest's
// offer or cancel under sequence seq, or n's gossip when seq is 0.
type deadline struct {
	due  int64
	n    *node
	dest graph.ProcessID
	seq  uint64
}

// live reports whether e was neither answered, re-driven nor rescheduled.
func (e *deadline) live() bool {
	if e.seq == 0 {
		return e.due == e.n.gossipArmed
	}
	ds := &e.n.dests[e.dest]
	return ds.hasE && ds.offerSeq == e.seq && ds.due == e.due
}

// newWorkers splits running into min(GOMAXPROCS, len(running)) contiguous
// blocks, one worker each. Caller holds the barrier (or nothing runs);
// startWorkers starts them.
func (nw *Network) newWorkers(running []graph.ProcessID) []*worker {
	ws := make([]*worker, min(runtime.GOMAXPROCS(0), len(running)))
	for i := range ws {
		block := running[i*len(running)/len(ws) : (i+1)*len(running)/len(ws)]
		w := &worker{nw: nw, wake: make(chan struct{}, 1), armedAt: math.MaxInt64}
		for _, p := range block {
			w.adopt(nw.nodes[p])
		}
		ws[i] = w
	}
	return ws
}

func (nw *Network) startWorkers() {
	for _, w := range nw.workers {
		nw.wg.Add(1)
		go w.run()
	}
}

// adopt makes w the owner of n and takes over n's timed work: its gossip
// and the retransmission of every outstanding offer or cancel.
func (w *worker) adopt(n *node) {
	w.nodes = append(w.nodes, n)
	n.owner.Store(w)
	if len(n.nbrs) > 0 {
		n.gossipArmed = math.MaxInt64
		w.schedGossip(n)
	}
	for d := range n.dests {
		if ds := &n.dests[d]; ds.hasE && ds.offerSeq != 0 {
			w.push(deadline{due: ds.due, n: n, dest: graph.ProcessID(d), seq: ds.offerSeq})
		}
	}
}

// run serves the nodes in turn until Stop, or an epoch's quit once the
// barrier releases: one burst each (node.serve), then the timed work.
func (w *worker) run() {
	defer w.nw.wg.Done()
	defer func() {
		if w.timer != nil {
			w.timer.Stop()
		}
	}()
	for {
		busy := false
		for _, n := range w.nodes {
			if req := w.pause.Load(); req != nil { // park at the barrier
				w.pause.Store(nil)
				req.arrived.Done()
				<-req.release
				busy = true
			}
			if w.quit.Load() {
				return
			}
			if n.serve() {
				busy = true
			}
		}
		w.timed()
		if !busy {
			<-w.wake
		}
	}
}

// wakeUp makes the worker run a turn now; a pending wake covers it.
func (w *worker) wakeUp() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// timed runs the nodes' timed work on one clock reading: a changed vector
// goes out at once or a Tick after the previous gossip, then every due
// deadline runs. Heartbeats due within a Tick of a deadline that ran go
// with it, so an idle worker's nodes fall into step; retransmissions and
// changed vectors keep their exact deadlines. The timer is left armed for
// the earliest live deadline.
func (w *worker) timed() {
	now := w.nw.clk.Nanos()
	if now >= w.armedAt {
		w.armedAt = math.MaxInt64 // the timer fired, or is about to
	}
	for _, n := range w.nodes {
		if n.dvDirty || n.gossip == nil {
			if len(n.nbrs) == 0 {
				n.dvDirty = false // nobody to tell
				continue
			}
			if now >= n.gossipDue() {
				n.gossipNow(now)
			}
			w.schedGossip(n)
		}
	}
	ran := false
	for len(w.deadlines) > 0 {
		e := w.deadlines[0]
		if !e.live() {
			w.pop()
			continue
		}
		heartbeat := e.seq == 0 && e.n.gossip != nil && !e.n.dvDirty
		if e.due > now && !(ran && heartbeat && e.due <= now+int64(w.nw.opts.Tick)) {
			break
		}
		w.pop()
		ran = true
		if e.seq == 0 {
			e.n.gossipNow(now)
			w.schedGossip(e.n)
		} else {
			w.nw.tel.retransmits.Inc() // the retransmission machinery at work
			e.n.driveTransfer(e.dest)
		}
	}
	if len(w.deadlines) > 0 && w.deadlines[0].due < w.armedAt {
		w.armedAt = w.deadlines[0].due
		if w.timer == nil {
			w.timer = w.nw.clk.AfterFunc(time.Duration(w.armedAt-now), w.wakeUp)
		} else {
			w.timer.Reset(time.Duration(w.armedAt - now))
		}
	}
}

// schedGossip puts n's next gossip in the heap unless it is there already.
func (w *worker) schedGossip(n *node) {
	if due := n.gossipDue(); due != n.gossipArmed {
		n.gossipArmed = due
		w.push(deadline{due: due, n: n})
	}
}

// push adds e to the heap, whose storage steady load reuses.
func (w *worker) push(e deadline) {
	h := append(w.deadlines, e)
	for i := len(h) - 1; i > 0 && h[(i-1)/2].due > h[i].due; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	w.deadlines = h
}

// pop removes the earliest deadline.
func (w *worker) pop() {
	last := len(w.deadlines) - 1
	h := w.deadlines[:last]
	w.deadlines[0] = w.deadlines[last]
	w.deadlines[last] = deadline{} // release the node reference
	for i := 0; 2*i+1 < last; {
		c := 2*i + 1
		if c+1 < last && h[c+1].due < h[c].due {
			c++
		}
		if h[i].due <= h[c].due {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	w.deadlines = h
}
