package metric

import (
	"expvar"
	"testing"
)

func TestCounterMatchesExpvarInt(t *testing.T) {
	var c Counter
	var ref expvar.Int
	if c.Value() != 0 || c.String() != ref.String() {
		t.Fatalf("zero value: Value %d String %q, want 0 and %q", c.Value(), c.String(), ref.String())
	}
	for _, n := range []uint64{1, 1, 0, 41, 1 << 40} {
		c.Add(n)
		ref.Add(int64(n))
		if c.Value() != ref.Value() || c.String() != ref.String() {
			t.Fatalf("after Add(%d): Value %d String %q, want %d and %q", n, c.Value(), c.String(), ref.Value(), ref.String())
		}
	}
	var _ expvar.Var = &c
}
