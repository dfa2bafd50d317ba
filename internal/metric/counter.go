// Package metric holds the /debug/vars counter type.
package metric

import (
	"strconv"
	"sync/atomic"
)

// Counter is a count that only goes up: dashboards rate() over it, and a
// counter that rewinds renders as a negative-rate spike. It has no Set,
// and Add takes an unsigned amount, so a decrement does not compile. The
// zero value is ready to use and safe for concurrent use. It satisfies
// expvar.Var, rendering exactly as expvar.Int does.
type Counter struct {
	n atomic.Int64
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.n.Add(int64(n)) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// String renders the count as a JSON number.
func (c *Counter) String() string { return strconv.FormatInt(c.n.Load(), 10) }
