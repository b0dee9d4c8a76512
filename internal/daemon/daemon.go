// Package daemon provides the schedulers ("daemons") of the state model:
// the adversary that picks which enabled processors execute at each step.
// §2.1 of the paper distinguishes daemons by distribution (central vs
// distributed) and fairness (strongly fair, weakly fair, unfair). The
// paper's proofs assume a weakly fair (distributed) daemon; the experiments
// also exercise synchronous, central, random-distributed, starvation-prone
// and scripted daemons.
//
// All daemons here are deterministic given their seed, so every experiment
// is reproducible.
package daemon

import (
	"fmt"
	"math/rand"

	"ssmfp/internal/graph"
	sm "ssmfp/internal/statemodel"
)

// New builds the daemon named kind, seeded by seed; n, the network size,
// scales the weakly fair daemon's starvation bound.
func New(kind string, seed int64, n int) (sm.Daemon, error) {
	switch kind {
	case "synchronous":
		return NewSynchronous(seed), nil
	case "central-random":
		return NewCentralRandom(seed), nil
	case "central-round-robin":
		return NewCentralRoundRobin(), nil
	case "distributed-random":
		return NewDistributedRandom(seed, 0.5), nil
	case "weakly-fair-lifo":
		return NewWeaklyFair(NewCentralLIFO(), 4*n), nil
	}
	return nil, fmt.Errorf("unknown daemon %q (want synchronous, central-random, central-round-robin, distributed-random, or weakly-fair-lifo)", kind)
}

// pickFirst deterministically picks the first offered rule (program order,
// which for SSMFP is the paper's R1..R6 listing order).
func pickFirst(c sm.Choice) sm.Selection {
	return sm.Selection{Process: c.Process, Rule: c.Rules[0]}
}

func pickRandom(c sm.Choice, rng *rand.Rand) sm.Selection {
	return sm.Selection{Process: c.Process, Rule: c.Rules[rng.Intn(len(c.Rules))]}
}

// Synchronous activates every enabled processor at every step.
type Synchronous struct {
	rng *rand.Rand
	buf []sm.Selection
}

// NewSynchronous returns a synchronous daemon; rule choice within a
// processor is uniform over the offered (minimal-priority) rules.
func NewSynchronous(seed int64) *Synchronous {
	return &Synchronous{rng: rand.New(rand.NewSource(seed))}
}

func (d *Synchronous) Name() string { return "synchronous" }

func (d *Synchronous) Select(step int, enabled []sm.Choice) []sm.Selection {
	d.buf = d.buf[:0]
	for _, c := range enabled {
		d.buf = append(d.buf, pickRandom(c, d.rng))
	}
	return d.buf
}

// CentralRoundRobin activates exactly one processor per step, cycling
// through processor IDs; it is weakly fair (every continuously enabled
// processor is chosen within n steps of the cycle reaching it).
type CentralRoundRobin struct {
	next graph.ProcessID
	buf  [1]sm.Selection
}

// NewCentralRoundRobin returns a central round-robin daemon.
func NewCentralRoundRobin() *CentralRoundRobin { return &CentralRoundRobin{} }

func (d *CentralRoundRobin) Name() string { return "central-round-robin" }

func (d *CentralRoundRobin) Select(step int, enabled []sm.Choice) []sm.Selection {
	// Pick the first enabled processor with ID >= next (cyclically).
	best := enabled[0]
	found := false
	for _, c := range enabled {
		if c.Process >= d.next {
			best = c
			found = true
			break
		}
	}
	if !found {
		best = enabled[0] // wrap around
	}
	d.next = best.Process + 1
	d.buf[0] = pickFirst(best)
	return d.buf[:]
}

// CentralRandom activates one uniformly random enabled processor per step.
// It is strongly fair with probability 1 but gives no deterministic bound.
type CentralRandom struct {
	rng *rand.Rand
	buf [1]sm.Selection
}

// NewCentralRandom returns a central uniform-random daemon.
func NewCentralRandom(seed int64) *CentralRandom {
	return &CentralRandom{rng: rand.New(rand.NewSource(seed))}
}

func (d *CentralRandom) Name() string { return "central-random" }

func (d *CentralRandom) Select(step int, enabled []sm.Choice) []sm.Selection {
	d.buf[0] = pickRandom(enabled[d.rng.Intn(len(enabled))], d.rng)
	return d.buf[:]
}

// DistributedRandom activates each enabled processor independently with
// probability p, re-drawing until the set is non-empty (the distributed
// daemon must choose at least one processor).
type DistributedRandom struct {
	rng *rand.Rand
	p   float64
	buf []sm.Selection
}

// NewDistributedRandom returns a distributed daemon activating each enabled
// processor with probability p ∈ (0, 1].
func NewDistributedRandom(seed int64, p float64) *DistributedRandom {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("daemon: DistributedRandom probability %v out of (0,1]", p))
	}
	return &DistributedRandom{rng: rand.New(rand.NewSource(seed)), p: p}
}

func (d *DistributedRandom) Name() string { return "distributed-random" }

func (d *DistributedRandom) Select(step int, enabled []sm.Choice) []sm.Selection {
	for {
		d.buf = d.buf[:0]
		for _, c := range enabled {
			if d.rng.Float64() < d.p {
				d.buf = append(d.buf, pickRandom(c, d.rng))
			}
		}
		if len(d.buf) > 0 {
			return d.buf
		}
	}
}

// CentralLIFO is a starvation-prone central daemon: it always activates the
// enabled processor with the highest ID (and within it, the last offered
// rule). Alone it is unfair — wrap it in WeaklyFair to obtain an
// adversarial-but-weakly-fair daemon, the worst case the paper's proofs
// admit.
type CentralLIFO struct {
	buf [1]sm.Selection
}

// NewCentralLIFO returns the biased central daemon described above.
func NewCentralLIFO() *CentralLIFO { return &CentralLIFO{} }

func (d *CentralLIFO) Name() string { return "central-lifo" }

func (d *CentralLIFO) Select(step int, enabled []sm.Choice) []sm.Selection {
	best := enabled[0]
	for _, c := range enabled {
		if c.Process > best.Process {
			best = c
		}
	}
	d.buf[0] = sm.Selection{Process: best.Process, Rule: best.Rules[len(best.Rules)-1]}
	return d.buf[:]
}

// WeaklyFair wraps an inner daemon and enforces weak fairness with a
// deterministic starvation bound: it tracks, for every processor, how many
// consecutive steps it has been enabled without being activated; whenever
// some processor's count reaches Bound, the wrapper overrides the inner
// daemon and activates (one of) the most starved processor(s) instead.
// Every continuously enabled processor is therefore activated within Bound
// steps — the weakly fair daemon of §2.1.
type WeaklyFair struct {
	inner sm.Daemon
	bound int
	age   map[graph.ProcessID]int
	buf   [1]sm.Selection
}

// NewWeaklyFair wraps inner with starvation bound ≥ 1.
func NewWeaklyFair(inner sm.Daemon, bound int) *WeaklyFair {
	if bound < 1 {
		panic(fmt.Sprintf("daemon: WeaklyFair bound %d < 1", bound))
	}
	return &WeaklyFair{inner: inner, bound: bound, age: make(map[graph.ProcessID]int)}
}

func (d *WeaklyFair) Name() string { return "weakly-fair(" + d.inner.Name() + ")" }

func (d *WeaklyFair) Select(step int, enabled []sm.Choice) []sm.Selection {
	// Find the most starved enabled processor.
	starved := sm.Choice{}
	starvedAge := -1
	for _, c := range enabled {
		if a := d.age[c.Process]; a > starvedAge {
			starved, starvedAge = c, a
		}
	}
	var out []sm.Selection
	if starvedAge >= d.bound {
		d.buf[0] = pickFirst(starved)
		out = d.buf[:]
	} else {
		out = d.inner.Select(step, enabled)
	}
	chosen := make(map[graph.ProcessID]bool, len(out))
	for _, s := range out {
		chosen[s.Process] = true
	}
	// Age accounting: reset on activation, increment while enabled and
	// passed over, forget when disabled.
	enabledSet := make(map[graph.ProcessID]bool, len(enabled))
	for _, c := range enabled {
		enabledSet[c.Process] = true
		if chosen[c.Process] {
			d.age[c.Process] = 0
		} else {
			d.age[c.Process]++
		}
	}
	for p := range d.age {
		if !enabledSet[p] {
			delete(d.age, p)
		}
	}
	return out
}
