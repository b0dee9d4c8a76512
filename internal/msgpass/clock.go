package msgpass

import "time"

// clock is the live port's one seam onto time: every instant a node
// stamps and the one timer each worker arms go through it, so that a
// virtual-time driver can stand in for the wall clock. wallClock is the
// implementation a Network runs on.
type clock interface {
	// Nanos is monotonic time in nanoseconds since the clock was made.
	// The port only subtracts two readings or adds an interval to one.
	Nanos() int64
	// Now is the wall-clock instant a delivery is stamped with.
	Now() time.Time
	// AfterFunc calls f on its own goroutine once d has elapsed. The
	// returned timer is re-armed with Reset and disarmed with Stop.
	AfterFunc(d time.Duration, f func()) timer
}

// timer is the part of *time.Timer a worker uses.
type timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// wallClock reads the machine's clock; origin anchors Nanos.
type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (c wallClock) Nanos() int64 { return int64(time.Since(c.origin)) }

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) timer { return time.AfterFunc(d, f) }
