package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sectorpack/internal/geom"
)

func deltaBase() *Instance {
	in := &Instance{
		Name:    "delta-base",
		Variant: Sectors,
		Customers: []Customer{
			{Theta: 0.1, R: 1, Demand: 2},
			{Theta: 0.5, R: 2, Demand: 3, Profit: 7},
			{Theta: 1.0, R: 3, Demand: 1},
			{Theta: 2.0, R: 4, Demand: 5},
		},
		Antennas: []Antenna{
			{Rho: 1, Range: 5, Capacity: 10},
			{Rho: 1, Range: 3, Capacity: 4},
		},
	}
	in.Normalize()
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

func TestApplyDeltaOrderAndRenumber(t *testing.T) {
	in := deltaBase()
	d := Delta{
		SetDemand:   []DemandChange{{Customer: 1, Demand: 9}}, // profit defaults to 9
		SetCapacity: []CapacityChange{{Antenna: 1, Capacity: 6}},
		Remove:      []int{0, 2},
		Add:         []Customer{{Theta: -0.5, R: 1.5, Demand: 4}}, // theta normalized
	}
	out, err := ApplyDelta(in, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.N(), 3; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	// Survivors keep order and are renumbered: old 1 -> new 0, old 3 -> new 1.
	if out.Customers[0].Demand != 9 || out.Customers[0].Profit != 9 {
		t.Errorf("survivor 0 = %+v, want demand/profit 9 (SetDemand applied before Remove)", out.Customers[0])
	}
	if out.Customers[1].Demand != 5 {
		t.Errorf("survivor 1 = %+v, want old customer 3", out.Customers[1])
	}
	// The added customer is appended last with a normalized angle.
	add := out.Customers[2]
	if add.ID != 2 || add.Profit != 4 {
		t.Errorf("added customer = %+v, want ID 2 and defaulted profit", add)
	}
	if add.Theta < 0 || add.Theta >= 2*math.Pi {
		t.Errorf("added theta %v not normalized", add.Theta)
	}
	if out.Antennas[1].Capacity != 6 {
		t.Errorf("antenna 1 capacity = %d, want 6", out.Antennas[1].Capacity)
	}
	for i, c := range out.Customers {
		if c.ID != i {
			t.Errorf("customer %d has ID %d after renumbering", i, c.ID)
		}
	}
	if err := out.Validate(); err != nil {
		t.Errorf("materialized instance invalid: %v", err)
	}
	// The input must be untouched.
	if in.N() != 4 || in.Customers[1].Demand != 3 || in.Antennas[1].Capacity != 4 {
		t.Error("ApplyDelta modified its input")
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	in := deltaBase()
	if !(Delta{}).Empty() {
		t.Error("zero delta not Empty")
	}
	out, err := ApplyDelta(in, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if out.N() != in.N() || out.M() != in.M() {
		t.Errorf("empty delta changed shape: %d/%d -> %d/%d", in.N(), in.M(), out.N(), out.M())
	}
}

func TestDeltaValidateRejects(t *testing.T) {
	in := deltaBase()
	cases := []struct {
		name string
		d    Delta
		want string
	}{
		{"customer out of range", Delta{SetDemand: []DemandChange{{Customer: 9, Demand: 1}}}, "out of range"},
		{"duplicate demand target", Delta{SetDemand: []DemandChange{{Customer: 1, Demand: 1}, {Customer: 1, Demand: 2}}}, "targeted twice"},
		{"non-positive demand", Delta{SetDemand: []DemandChange{{Customer: 0, Demand: 0}}}, "must be positive"},
		{"antenna out of range", Delta{SetCapacity: []CapacityChange{{Antenna: 2, Capacity: 1}}}, "out of range"},
		{"negative capacity", Delta{SetCapacity: []CapacityChange{{Antenna: 0, Capacity: -1}}}, "non-negative"},
		{"duplicate remove", Delta{Remove: []int{1, 1}}, "removed twice"},
		{"remove out of range", Delta{Remove: []int{-1}}, "out of range"},
		{"bad added radius", Delta{Add: []Customer{{Theta: 0, R: math.Inf(1), Demand: 1}}}, "invalid radius"},
		{"bad added theta", Delta{Add: []Customer{{Theta: math.NaN(), R: 1, Demand: 1}}}, "invalid theta"},
		{"bad added demand", Delta{Add: []Customer{{Theta: 0, R: 1, Demand: 0}}}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ApplyDelta(in, tc.d); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ApplyDelta err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestTraceRoundTripAndMaterialize(t *testing.T) {
	tr := &Trace{
		Name:     "rt",
		Instance: deltaBase(),
		Deltas: []Delta{
			{Remove: []int{0}},
			// After delta 0 the old customer 1 is ID 0.
			{SetDemand: []DemandChange{{Customer: 0, Demand: 11}}, Add: []Customer{{Theta: 1, R: 2, Demand: 2}}},
		},
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || len(got.Deltas) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	fin, err := got.Materialize(len(got.Deltas))
	if err != nil {
		t.Fatal(err)
	}
	if fin.N() != 4 || fin.Customers[0].Demand != 11 {
		t.Errorf("materialized final = n=%d customers[0]=%+v", fin.N(), fin.Customers[0])
	}
	base, err := got.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != 4 || base.Customers[0].Demand != 2 {
		t.Errorf("materialize(0) should clone the base, got customers[0]=%+v", base.Customers[0])
	}
	if _, err := got.Materialize(3); err == nil {
		t.Error("materialize past the end should fail")
	}
}

func TestReadTraceJSONRejectsBrokenReplay(t *testing.T) {
	tr := &Trace{
		Instance: deltaBase(),
		// Delta 0 shrinks to 3 customers, so delta 1's target 3 is stale.
		Deltas: []Delta{{Remove: []int{0}}, {SetDemand: []DemandChange{{Customer: 3, Demand: 1}}}},
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := readTraceJSON(&buf); err == nil || !strings.Contains(err.Error(), "delta 1") {
		t.Fatalf("readTraceJSON err = %v, want replay failure naming delta 1", err)
	}
}

// readTraceJSON parses a trace written by WriteTraceJSON and validates it
// end to end: the base instance must validate, and every delta must apply
// cleanly in sequence (a delta's IDs are only meaningful against the state
// its predecessors produced, so validation IS replay).
func readTraceJSON(r io.Reader) (*Trace, error) {
	var env traceJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	if env.FormatVersion != formatVersion {
		return nil, fmt.Errorf("unsupported trace format version %d (want %d)", env.FormatVersion, formatVersion)
	}
	if env.Trace == nil || env.Trace.Instance == nil {
		return nil, fmt.Errorf("trace envelope missing instance")
	}
	env.Trace.Instance.Normalize()
	if err := env.Trace.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("invalid trace instance: %w", err)
	}
	if _, err := env.Trace.Materialize(len(env.Trace.Deltas)); err != nil {
		return nil, fmt.Errorf("invalid trace: %w", err)
	}
	return env.Trace, nil
}

// applyDeltaReference is the reference definition of ApplyDelta: clone,
// re-price by position, re-capacitate, drop the removed IDs, append the
// additions, and normalize the whole result.
func applyDeltaReference(in *Instance, d Delta) *Instance {
	out := in.Clone()
	for _, ch := range d.SetDemand {
		c := &out.Customers[ch.Customer]
		c.Demand = ch.Demand
		c.Profit = ch.Profit
		if c.Profit == 0 {
			c.Profit = c.Demand
		}
	}
	for _, ch := range d.SetCapacity {
		out.Antennas[ch.Antenna].Capacity = ch.Capacity
	}
	gone := make(map[int]bool, len(d.Remove))
	for _, id := range d.Remove {
		gone[id] = true
	}
	kept := out.Customers[:0]
	for _, c := range out.Customers {
		if !gone[c.ID] {
			kept = append(kept, c)
		}
	}
	out.Customers = kept
	for _, c := range d.Add {
		c.Theta = geom.NormAngle(c.Theta)
		if c.Profit == 0 {
			c.Profit = c.Demand
		}
		out.Customers = append(out.Customers, c)
	}
	return out.Normalize()
}

// TestApplyDeltaMatchesReference pins the one-pass ApplyDelta to the
// reference bit for bit (floats compared through their JSON text, which
// tells −0 from +0) on random deltas over random instances, including
// instances that were never normalized: angles outside [0, 2π), −0, zero
// profits, antenna IDs and customer IDs that differ from their positions.
func TestApplyDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	angle := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return (rng.Float64() - 0.5) * 40
		}
		return rng.Float64() * 2 * math.Pi
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(30)
		in := &Instance{Name: "ref", Variant: Sectors}
		for i := 0; i < n; i++ {
			in.Customers = append(in.Customers, Customer{ID: i, Theta: angle(), R: rng.Float64() * 5, Demand: 1 + rng.Int63n(9), Profit: rng.Int63n(3) * rng.Int63n(9)})
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			in.Antennas = append(in.Antennas, Antenna{ID: j, Rho: 1, Capacity: rng.Int63n(20)})
		}
		if trial%3 == 0 {
			for i := range in.Customers {
				in.Customers[i].ID = rng.Intn(n+4) - 2
			}
			in.Antennas[0].ID = 7
		}
		var d Delta
		for _, i := range rng.Perm(n)[:rng.Intn(n+1)] {
			d.SetDemand = append(d.SetDemand, DemandChange{Customer: i, Demand: 1 + rng.Int63n(9), Profit: rng.Int63n(3) * rng.Int63n(9)})
		}
		d.Remove = rng.Perm(n)[:rng.Intn(n+1)]
		for _, j := range rng.Perm(in.M())[:rng.Intn(in.M()+1)] {
			d.SetCapacity = append(d.SetCapacity, CapacityChange{Antenna: j, Capacity: rng.Int63n(30)})
		}
		for k := rng.Intn(4); k > 0; k-- {
			d.Add = append(d.Add, Customer{Theta: angle(), R: rng.Float64() * 5, Demand: 1 + rng.Int63n(9), Profit: rng.Int63n(2) * rng.Int63n(9)})
		}
		before, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyDelta(in, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("trial %d: ApplyDelta modified its input", trial)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(applyDeltaReference(in, d))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %d: ApplyDelta\n%s\nreference\n%s", trial, gotJSON, wantJSON)
		}
	}
}
