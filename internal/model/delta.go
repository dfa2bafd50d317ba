package model

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Delta is one incremental change to an instance, the unit a solve session
// (internal/session) applies between re-solves. The delta vocabulary is
// deliberately limited to changes that preserve antenna geometry — customer
// arrivals, departures, demand changes, and antenna capacity changes — so
// warm per-antenna sweep state whose membership is a pure radial predicate
// can survive a delta untouched. Antenna position/width/range changes are
// not deltas; they are a new instance.
//
// Apply order is fixed and part of the wire contract:
//
//  1. SetDemand — demand/profit updates, addressed by pre-delta customer ID;
//  2. SetCapacity — antenna capacity updates;
//  3. Remove — customer departures, addressed by pre-delta customer ID;
//     surviving customers are renumbered to slice positions (the Validate
//     invariant), so later IDs shift down;
//  4. Add — arrivals, appended after the survivors and numbered from
//     len(survivors); any ID on an added customer is overwritten.
type Delta struct {
	SetDemand   []DemandChange   `json:"set_demand,omitempty"`
	SetCapacity []CapacityChange `json:"set_capacity,omitempty"`
	Remove      []int            `json:"remove,omitempty"`
	Add         []Customer       `json:"add,omitempty"`
}

// DemandChange updates one customer's demand (and profit). A zero Profit
// follows the Normalize convention: it defaults to the new demand.
type DemandChange struct {
	Customer int   `json:"customer"` // pre-delta customer ID
	Demand   int64 `json:"demand"`   // new demand, must be positive
	Profit   int64 `json:"profit,omitempty"`
}

// CapacityChange updates one antenna's capacity.
type CapacityChange struct {
	Antenna  int   `json:"antenna"`  // antenna ID
	Capacity int64 `json:"capacity"` // new capacity, must be non-negative
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.SetDemand) == 0 && len(d.SetCapacity) == 0 &&
		len(d.Remove) == 0 && len(d.Add) == 0
}

// Validate checks the delta against the instance it would apply to:
// referenced IDs must exist, no ID may be targeted twice within one
// operation list (duplicate targets are almost always a trace-generation
// bug, so they are rejected rather than resolved last-wins), and added
// customers must satisfy the same field constraints Instance.Validate
// enforces. It does not modify in.
func (d Delta) Validate(in *Instance) error {
	var errs []error
	seenC := make(map[int]bool, len(d.SetDemand))
	for k, ch := range d.SetDemand {
		if ch.Customer < 0 || ch.Customer >= in.N() {
			errs = append(errs, fmt.Errorf("set_demand[%d]: customer %d out of range [0,%d)", k, ch.Customer, in.N()))
			continue
		}
		if seenC[ch.Customer] {
			errs = append(errs, fmt.Errorf("set_demand[%d]: customer %d targeted twice", k, ch.Customer))
		}
		seenC[ch.Customer] = true
		if ch.Demand <= 0 {
			errs = append(errs, fmt.Errorf("set_demand[%d]: demand %d must be positive", k, ch.Demand))
		}
		if ch.Profit < 0 {
			errs = append(errs, fmt.Errorf("set_demand[%d]: profit %d must be non-negative", k, ch.Profit))
		}
	}
	seenA := make(map[int]bool, len(d.SetCapacity))
	for k, ch := range d.SetCapacity {
		if ch.Antenna < 0 || ch.Antenna >= in.M() {
			errs = append(errs, fmt.Errorf("set_capacity[%d]: antenna %d out of range [0,%d)", k, ch.Antenna, in.M()))
			continue
		}
		if seenA[ch.Antenna] {
			errs = append(errs, fmt.Errorf("set_capacity[%d]: antenna %d targeted twice", k, ch.Antenna))
		}
		seenA[ch.Antenna] = true
		if ch.Capacity < 0 {
			errs = append(errs, fmt.Errorf("set_capacity[%d]: capacity %d must be non-negative", k, ch.Capacity))
		}
	}
	seenR := make(map[int]bool, len(d.Remove))
	for k, id := range d.Remove {
		if id < 0 || id >= in.N() {
			errs = append(errs, fmt.Errorf("remove[%d]: customer %d out of range [0,%d)", k, id, in.N()))
			continue
		}
		if seenR[id] {
			errs = append(errs, fmt.Errorf("remove[%d]: customer %d removed twice", k, id))
		}
		seenR[id] = true
	}
	for k, c := range d.Add {
		if math.IsNaN(c.Theta) || math.IsInf(c.Theta, 0) {
			errs = append(errs, fmt.Errorf("add[%d]: invalid theta %v", k, c.Theta))
		}
		if c.R < 0 || math.IsNaN(c.R) || math.IsInf(c.R, 0) {
			errs = append(errs, fmt.Errorf("add[%d]: invalid radius %v", k, c.R))
		}
		if c.Demand <= 0 {
			errs = append(errs, fmt.Errorf("add[%d]: demand %d must be positive", k, c.Demand))
		}
		if c.Profit < 0 {
			errs = append(errs, fmt.Errorf("add[%d]: profit %d must be non-negative", k, c.Profit))
		}
	}
	return errors.Join(errs...)
}

// ApplyDelta materializes the instance that results from applying d to in.
// It is THE definition of what a delta means: the session package, the
// differential suites, and the fuzz target all compare against it. The
// input is not modified; the result is Normalize()d and satisfies Validate
// whenever in did and d.Validate(in) == nil.
func ApplyDelta(in *Instance, d Delta) (*Instance, error) {
	if err := d.Validate(in); err != nil {
		return nil, fmt.Errorf("invalid delta: %w", err)
	}
	out := &Instance{Name: in.Name, Variant: in.Variant, Antennas: append([]Antenna(nil), in.Antennas...)}
	for j := range out.Antennas {
		out.Antennas[j].ID = j
	}
	for _, ch := range d.SetCapacity {
		out.Antennas[ch.Antenna].Capacity = ch.Capacity
	}
	// One copy of the customers, compacted in place: survivors re-priced
	// and normalized, then the additions appended. SetDemand addresses
	// pre-delta positions, visited in ascending order; Remove addresses
	// customer IDs (the same thing in a valid instance). Validate bounds
	// both by N and rejects duplicates, so a customer whose ID lies outside
	// [0, N) is never removed.
	sets := slices.Clone(d.SetDemand)
	slices.SortFunc(sets, func(a, b DemandChange) int { return cmp.Compare(a.Customer, b.Customer) })
	var gone []bool
	if len(d.Remove) > 0 {
		gone = make([]bool, in.N())
		for _, id := range d.Remove {
			gone[id] = true
		}
	}
	cs := append([]Customer(nil), in.Customers...)
	w := 0
	for i := range cs {
		c := &cs[i]
		if len(sets) > 0 && sets[0].Customer == i {
			c.Demand, c.Profit = sets[0].Demand, sets[0].Profit
			sets = sets[1:]
		}
		if c.ID >= 0 && c.ID < len(gone) && gone[c.ID] {
			continue
		}
		if w < i {
			cs[w] = *c
		}
		normalize(&cs[w], w)
		w++
	}
	cs = append(cs[:w], d.Add...)
	for ; w < len(cs); w++ {
		normalize(&cs[w], w)
	}
	out.Customers = cs
	return out, nil
}

// Trace is a churn scenario: a base instance plus an ordered list of deltas.
// Delta k's customer IDs refer to the instance state after deltas 0..k-1
// (post-renumbering), so replay order matters. sectorgen -churn emits
// traces; the session differential suite replays them.
type Trace struct {
	Name     string    `json:"name,omitempty"`
	Instance *Instance `json:"instance"`
	Deltas   []Delta   `json:"deltas"`
}

// Materialize returns the instance after the first k deltas (k = 0 returns
// a clone of the base). It is the from-scratch reference the session's
// incremental state is differential-tested against.
func (t *Trace) Materialize(k int) (*Instance, error) {
	if k < 0 || k > len(t.Deltas) {
		return nil, fmt.Errorf("materialize step %d out of range [0,%d]", k, len(t.Deltas))
	}
	cur := t.Instance.Clone()
	for i := 0; i < k; i++ {
		next, err := ApplyDelta(cur, t.Deltas[i])
		if err != nil {
			return nil, fmt.Errorf("delta %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// traceJSON is the versioned wire envelope for churn traces, mirroring the
// instance and batch envelopes in io.go.
type traceJSON struct {
	FormatVersion int    `json:"format_version"`
	Trace         *Trace `json:"trace"`
}

// WriteTraceJSON serializes a churn trace to w with indentation, wrapped in
// the versioned envelope.
func WriteTraceJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceJSON{FormatVersion: formatVersion, Trace: t})
}

// SaveTraceFile writes the trace to path with the same atomicity guarantee
// as SaveFile.
func SaveTraceFile(path string, t *Trace) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteTraceJSON(w, t) })
}
