package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The reference decoders below are the encoding/json paths the canonical
// decoder must agree with: each is the body of the entry point before the
// canonical path existed.

func refReadJSON(data []byte) (*Instance, error) {
	var env instanceJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("decode instance: %w", err)
	}
	if env.FormatVersion != formatVersion {
		return nil, fmt.Errorf("unsupported instance format version %d (want %d)", env.FormatVersion, formatVersion)
	}
	if env.Instance == nil {
		return nil, fmt.Errorf("instance envelope missing body")
	}
	env.Instance.Normalize()
	if err := env.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("invalid instance: %w", err)
	}
	return env.Instance, nil
}

func refReadBatchJSON(data []byte) ([]*Instance, error) {
	var env batchJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	if env.FormatVersion != formatVersion {
		return nil, fmt.Errorf("unsupported batch format version %d (want %d)", env.FormatVersion, formatVersion)
	}
	if len(env.Instances) == 0 {
		return nil, fmt.Errorf("batch envelope has no instances")
	}
	for i, in := range env.Instances {
		if in == nil {
			return nil, fmt.Errorf("batch instance %d is null", i)
		}
		in.Normalize()
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("invalid batch instance %d: %w", i, err)
		}
	}
	return env.Instances, nil
}

func refDecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sameResult fails unless both calls returned equal values and equal error
// strings (or both no error).
func sameResult(t *testing.T, entry string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, encoding/json says %v", entry, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %#v, encoding/json decoded %#v", entry, got, want)
	}
}

// canonicalSeeds are bodies the canonical decoder reads itself, covering
// every envelope, whitespace, -0, underflow and the int64 extremes.
var canonicalSeeds = []string{
	`{"format_version":1,"instance":{"variant":0,"customers":[{"id":0,"theta":0.5,"r":2,"demand":3}],"antennas":[{"id":0,"rho":1,"range":5,"capacity":4}]}}`,
	`{"format_version":1,"instance":{"name":"n1","variant":2,"customers":[],"antennas":[{"id":0,"rho":0,"capacity":1}]}}`,
	`{"solver":"greedy","seed":-7,"timeout_ms":250,"format_version":1,"instance":{"variant":0,"customers":[{"id":0,"theta":1.25,"r":3,"demand":1,"profit":9}],"antennas":[{"id":0,"rho":0,"range":5,"min_range":1,"capacity":1}]}}`,
	`{"solver":"auto","format_version":1,"instances":[{"variant":0,"customers":[{"id":0,"theta":6.2831,"r":1e-3,"demand":2}],"antennas":[{"id":0,"rho":3.14,"range":0,"capacity":2}]},{"customers":[],"antennas":[]}]}`,
	`{"format_version":1,"instances":[]}`,
	`{}`,
	" \t\r\n{ \"format_version\" : 1 ,\n  \"instance\" : {\n    \"customers\" : [ ] , \"antennas\" : [ ]\n  }\n}\n",
	`{"solver":"greedy","format_version":1,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":-0,"r":-0.0,"demand":3}],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":1e-400,"r":2,"demand":3}],"antennas":[]}}`,
	`{"seed":9223372036854775807,"format_version":1,"instance":{"customers":[],"antennas":[]}}`,
	`{"seed":-9223372036854775808,"format_version":1,"instance":{"customers":[],"antennas":[]}}`,
}

// declinedSeeds are bodies it declines, one or more of each kind.
var declinedSeeds = []string{
	// Escaped and non-ASCII strings.
	`{"format_version":1,"instance":{"name":"a\"b","customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"name":"café","customers":[],"antennas":[]}}`,
	"{\"format_version\":1,\"instance\":{\"name\":\"a\x01b\",\"customers\":[],\"antennas\":[]}}",
	// Inexact and duplicate keys.
	`{"Format_Version":1,"instance":{"customers":[{"ID":0,"Theta":0.5,"r":2,"demand":3}],"antennas":[]}}`,
	`{"format_version":1,"format_version":1,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"theta":0.7,"r":2,"demand":3}],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[],"customers":[{"id":0,"theta":0.5,"r":2,"demand":3}],"antennas":[]}}`,
	// null.
	`{"format_version":1,"instance":null}`,
	`{"seed":null,"format_version":1,"instance":{"customers":null,"antennas":[]}}`,
	`{"format_version":1,"instances":[null]}`,
	`null`,
	// Numbers.
	`{"format_version":1.0,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1e0,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":1e400,"r":2,"demand":3}],"antennas":[]}}`,
	`{"format_version":01,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":+1,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":.5,"r":2,"demand":3}],"antennas":[]}}`,
	`{"seed":9223372036854775808,"format_version":1,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"r":2,"demand":99999999999999999999}],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[{"id":0,"theta":"0.5","r":2,"demand":3}],"antennas":[]}}`,
	// Trailing data.
	`{"format_version":1,"instance":{"customers":[],"antennas":[]}} x`,
	`{"format_version":1,"instance":{"customers":[],"antennas":[]}}{}`,
	`{"format_version":1,"instance":{"customers":[],"antennas":[]}`,
	// Unknown fields.
	`{"format_version":1,"bogus":3,"instance":{"customers":[],"antennas":[]}}`,
	`{"format_version":1,"instance":{"customers":[],"antennas":[],"extra":true}}`,
	`{"solver":"greedy","format_version":1,"instance":{"customers":[],"antennas":[]},"instances":[]}`,
	// Byte order mark.
	"\xef\xbb\xbf{\"format_version\":1,\"instance\":{\"customers\":[],\"antennas\":[]}}",
	``,
}

// FuzzDecodeDifferential checks every decode entry point that has a
// canonical path against the encoding/json path it replaces: for any
// input, the same value under reflect.DeepEqual and the same error string.
func FuzzDecodeDifferential(f *testing.F) {
	for _, s := range append(canonicalSeeds, declinedSeeds...) {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		refIn, refErr := refReadJSON(data)
		sameResult(t, "ReadJSON", in, refIn, err, refErr)

		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		in, err = LoadFile(path)
		sameResult(t, "LoadFile", in, refIn, err, refErr)

		ins, err := ReadBatchJSON(bytes.NewReader(data))
		refIns, refErr := refReadBatchJSON(data)
		sameResult(t, "ReadBatchJSON", ins, refIns, err, refErr)
		ins, err = LoadBatchFile(path)
		sameResult(t, "LoadBatchFile", ins, refIns, err, refErr)

		req, err := DecodeSolveRequest(bytes.NewReader(data))
		var refReq SolveRequest
		refErr = refDecodeStrict(data, &refReq)
		sameResult(t, "DecodeSolveRequest", req, refReq, err, refErr)

		breq, err := DecodeBatchRequest(bytes.NewReader(data))
		var refBreq BatchRequest
		refErr = refDecodeStrict(data, &refBreq)
		sameResult(t, "DecodeBatchRequest", breq, refBreq, err, refErr)

		// The Parse entry points back routing, whose reference is the
		// lenient json.Unmarshal; they may decline anything, but what they
		// accept must match it, raw bytes included.
		if req, raw, ok := ParseSolveRequest(data); ok {
			var ref SolveRequest
			err := json.Unmarshal(data, &ref)
			sameResult(t, "ParseSolveRequest", req, ref, nil, err)
			var refRaw struct{ Instance json.RawMessage }
			err = json.Unmarshal(data, &refRaw)
			sameResult(t, "ParseSolveRequest raw", raw, refRaw.Instance, nil, err)
		}
		if req, items, ok := ParseBatchRequest(data); ok {
			var ref BatchRequest
			err := json.Unmarshal(data, &ref)
			sameResult(t, "ParseBatchRequest", req, ref, nil, err)
			var refRaw struct{ Instances []json.RawMessage }
			err = json.Unmarshal(data, &refRaw)
			sameResult(t, "ParseBatchRequest raw", items, refRaw.Instances, nil, err)
		}
	})
}

// TestCanonicalFormsTakeTheFastPath pins which inputs the canonical
// decoder reads itself: what this repository writes must not fall back,
// and each declined seed above must.
func TestCanonicalFormsTakeTheFastPath(t *testing.T) {
	in := &Instance{Name: "pinned", Variant: Sectors,
		Customers: []Customer{{ID: 0, Theta: 0.1234567890123, R: 2.5, Demand: 3, Profit: 4}, {ID: 1, Theta: 6.28, R: 1e-9, Demand: 1, Profit: 1}},
		Antennas:  []Antenna{{ID: 0, Rho: 1.0471975511965976, Range: 8, Capacity: 5, MinRange: 0.5}}}
	var file, batch bytes.Buffer
	if err := WriteJSON(&file, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchJSON(&batch, []*Instance{in, in}); err != nil {
		t.Fatal(err)
	}
	seed := int64(3)
	solve, err := json.Marshal(SolveRequest{Solver: "greedy", Seed: &seed, TimeoutMillis: 50, FormatVersion: 1, Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	batchReq, err := json.Marshal(BatchRequest{Solver: "auto", FormatVersion: 1, Instances: []*Instance{in}})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body  []byte
		allow uint
	}{
		"WriteJSON":      {file.Bytes(), fileFields},
		"WriteBatchJSON": {batch.Bytes(), batchFileFields},
		"SolveRequest":   {solve, solveFields},
		"BatchRequest":   {batchReq, batchFields},
	} {
		if _, ok := decodeEnvelope(tc.body, tc.allow); !ok {
			t.Errorf("%s output fell back to encoding/json:\n%s", name, tc.body)
		}
	}
	for _, s := range canonicalSeeds {
		if _, ok := decodeEnvelope([]byte(s), solveFields|fieldInstances); !ok {
			t.Errorf("canonical seed declined: %s", s)
		}
	}
	for _, s := range declinedSeeds {
		if _, ok := decodeEnvelope([]byte(s), solveFields); ok {
			t.Errorf("non-canonical seed accepted: %q", s)
		}
	}
}

// TestFloatLiteralsBitIdentical checks the canonical float reader against
// strconv.ParseFloat, bit for bit, on the literals encoding/json writes and
// on short, long, exponent, subnormal and boundary spellings: each must be
// read, not declined, and read to the same bits.
func TestFloatLiteralsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lits := []string{"0", "-0", "0.0", "-0.0e5", "9007199254740991", "9007199254740992",
		"9007199254740993", "900719925474099.9", "1e22", "1e23", "1e-22", "1e-23",
		"123456789e-22", "4.9e-324", "1.7976931348623157e308", "0.1", "2.718281828459045"}
	for k := 0; k < 20000; k++ {
		f := math.Float64frombits(rng.Uint64())
		if k%2 == 0 {
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		lits = append(lits, strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'e', rng.Intn(17), 64),
			strconv.FormatFloat(f, 'f', rng.Intn(25), 64))
	}
	for _, lit := range lits {
		want, werr := strconv.ParseFloat(lit, 64)
		d := canon{b: []byte(lit)}
		got, ok := d.float()
		if ok != (werr == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%s: canonical read %v (ok %v), ParseFloat %v (err %v)", lit, got, ok, want, werr)
		}
	}
}

// TestDecodeReadErrorsMatchEncodingJSON checks the fall-back's replay of a
// failed read: a body cut by http.MaxBytesReader or by a reader error must
// give the result a json.Decoder reading the same source gave, whether
// the cut lands inside the value or after it.
func TestDecodeReadErrorsMatchEncodingJSON(t *testing.T) {
	body := canonicalSeeds[2]
	for _, tc := range []struct {
		name string
		src  func() io.Reader
	}{
		{"limit above body", func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 1<<20)
		}},
		{"limit inside value", func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), 40)
		}},
		{"limit after value", func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body+strings.Repeat(" x", 100))), int64(len(body)+10))
		}},
		{"read error inside value", func() io.Reader {
			return io.MultiReader(strings.NewReader(body[:50]), iotest.ErrReader(errors.New("connection reset")))
		}},
		{"read error after value", func() io.Reader {
			return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errors.New("connection reset")))
		}},
	} {
		got, err := DecodeSolveRequest(tc.src())
		var want SolveRequest
		dec := json.NewDecoder(tc.src())
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		sameResult(t, tc.name, got, want, err, wantErr)
	}
}
