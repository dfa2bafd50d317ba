package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

// smallWindow is a window size, in bytes, under a third of
// `{"id":0,"theta":0,"r":0,"demand":1}`: a streamed decode through it
// slides and grows the window inside every object.
const smallWindow = 7

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
		// A window smaller than any object makes every input slide and
		// grow it, as a file larger than the real window does.
		in, err = readInstance(newCanon(bytes.NewReader(data), smallWindow))
		sameResult(t, "ReadJSON, small window", in, refIn, err, refErr)

		ins, err := ReadBatchJSON(bytes.NewReader(data))
		refIns, refErr := refReadBatchJSON(data)
		sameResult(t, "ReadBatchJSON", ins, refIns, err, refErr)
		ins, err = LoadBatchFile(path)
		sameResult(t, "LoadBatchFile", ins, refIns, err, refErr)
		ins, err = readBatch(newCanon(bytes.NewReader(data), smallWindow))
		sameResult(t, "ReadBatchJSON, small window", ins, refIns, err, refErr)

		req, err := DecodeSolveRequest(bytes.NewReader(data))
		var refReq SolveRequest
		refErr = refDecodeStrict(data, &refReq)
		sameResult(t, "DecodeSolveRequest", req, refReq, err, refErr)

		breq, err := DecodeBatchRequest(bytes.NewReader(data))
		var refBreq BatchRequest
		refErr = refDecodeStrict(data, &refBreq)
		sameResult(t, "DecodeBatchRequest", breq, refBreq, err, refErr)

		// ParseSolveRequest backs routing, whose reference is the lenient
		// json.Unmarshal; it may decline anything, but what it accepts
		// must match it.
		if req, ok := ParseSolveRequest(data); ok {
			var ref SolveRequest
			err := json.Unmarshal(data, &ref)
			sameResult(t, "ParseSolveRequest", req, ref, nil, err)
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
		"123456789e-22", "4.9e-324", "1.7976931348623157e308", "0.1", "2.718281828459045",
		// The exact fast path's edges: mantissas 2^53-1, 2^53 and 2^53+1
		// at every scale it reaches and just past it.
		"9007199254740991e22", "9007199254740992e22", "9007199254740993e22",
		"9007199254740991e-22", "9007199254740992e-22", "9007199254740993e-22",
		"900719925474099.2", "900719925474099.3", "0.9007199254740993", "-9007199254740992e-23",
		// 19 and 20 significant digits.
		"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
		"18446744073709551616", "1.234567890123456789", "1.2345678901234567890", "0.1234567890123456789e3",
		// Leading zeros, which count as digits but not toward the mantissa.
		"0.000123", "-0.000123", "0.0000000000000000001", "0.00000000000000000001", "0.000000000000000000123e5",
		// Signed zeros.
		"-0", "-0.0", "-0e22", "-0.000e-400", "0e999999999999999999999",
		// The 1e22 / 1e23 boundary of the exact powers of ten.
		"5e22", "5e23", "5e-22", "5e-23", "123e20", "123e21", "1.5e22", "4e-21", "4.5e-22",
		// Exponent spellings.
		"1E5", "1e+5", "1e-05", "1E+005", "1e0", "1e-0", "1E-000", "1e0000000000000000000000005",
		"1e99999999999999999999", "1e-99999999999999999999"}
	lits = append(lits, exactDivisionLiterals(rng)...)
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
		got, _, ok := readFloat(lit)
		if ok != (werr == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%s: canonical read %v (ok %v), ParseFloat %v (err %v)", lit, got, ok, want, werr)
		}
	}
}

// exactDivisionLiterals spells the literals the exact-division path reads
// (a mantissa above 2^53 of at most 19 digits, decimal exponent in
// [−19, 0]) and its edges: random 17- to 19-digit mantissas at every
// exponent from −1 to −19, with a dot and with an exponent; the mantissas
// 2^53+1 and 10^19−1 at every exponent from 0 to −19; and values exactly
// halfway between two adjacent float64s, with their neighbours one unit
// in the last digit away.
func exactDivisionLiterals(rng *rand.Rand) []string {
	var lits []string
	spell := func(mant string, k int) {
		lits = append(lits, mant+"e-"+strconv.Itoa(k), "-"+mant+"e-"+strconv.Itoa(k))
		if d := len(mant) - k; k == 0 {
			lits = append(lits, mant)
		} else if d > 0 {
			lits = append(lits, mant[:d]+"."+mant[d:])
		} else {
			lits = append(lits, "0."+strings.Repeat("0", -d)+mant)
		}
	}
	for digits := 17; digits <= 19; digits++ {
		for k := 1; k <= 19; k++ {
			for range 20 {
				mant := strconv.Itoa(1 + rng.Intn(9))
				for len(mant) < digits {
					mant += strconv.Itoa(rng.Intn(10))
				}
				spell(mant, k)
			}
		}
	}
	for k := 0; k <= 19; k++ {
		spell("9007199254740993", k)
		spell("9999999999999999999", k)
	}
	// Between 2^50 and 2^63 a float64's halfway points have at most 19
	// significant digits: an integer part of 16 to 19 digits and at most
	// three binary, so decimal, fraction digits.
	for e := 50; e < 63; e++ {
		for range 20 {
			f := math.Ldexp(1+rng.Float64(), e)
			half := new(big.Float).SetPrec(128).SetFloat64(f)
			half.Add(half, new(big.Float).SetFloat64(math.Ldexp(1, e-53)))
			text := strings.TrimRight(strings.TrimRight(half.Text('f', 3), "0"), ".")
			mant, k := strings.Replace(text, ".", "", 1), 0
			if dot := strings.IndexByte(text, '.'); dot >= 0 {
				k = len(text) - dot - 1
			}
			v, _ := strconv.ParseUint(mant, 10, 64)
			for _, m := range []uint64{v - 1, v, v + 1} {
				spell(strconv.FormatUint(m, 10), k)
				spell(strconv.FormatUint(m, 10)+"000"[:min(3, 19-len(mant))], k+min(3, 19-len(mant)))
			}
		}
	}
	return lits
}

// TestFractionEndsAtFirstNonDigit puts every byte that is not a digit at
// every place of an eight-byte fraction word: the reader must stop there,
// with the value of the digits before it, or decline when there are none.
// Exponent marks, which continue the literal, are left out.
func TestFractionEndsAtFirstNonDigit(t *testing.T) {
	const digits = "9876543210987654"
	for c := 0; c < 256; c++ {
		if '0' <= c && c <= '9' || c|0x20 == 'e' {
			continue
		}
		for at := 0; at < 8; at++ {
			lit := "0." + digits[:at] + string([]byte{byte(c)}) + digits[at:]
			got, end, ok := readFloat(lit)
			want, werr := strconv.ParseFloat(lit[:2+at], 64)
			if ok != (at > 0) || ok && (end != 2+at || math.Float64bits(got) != math.Float64bits(want) || werr != nil) {
				t.Fatalf("%q: read %v (ok %v) to byte %d, want %v to byte %d", lit, got, ok, end, want, 2+at)
			}
		}
	}
}

// jsonNumber reports whether lit, all of it, is a number in JSON's
// grammar, which the canonical reader must read and strconv alone does not
// check (it takes "+1", "01", ".5", "Inf").
func jsonNumber(lit string) bool {
	return lit != "" && (lit[0] == '-' || '0' <= lit[0] && lit[0] <= '9') && json.Valid([]byte(lit))
}

// readFloat reads the number literal at the start of lit as the flat
// object reader does, returning its value and the index where it ends.
func readFloat(lit string) (float64, int, bool) {
	b := []byte(lit)
	var n num
	end, ok := scanNumber(&n, b, 0)
	if !ok {
		return 0, end, false
	}
	f, ok := n.float(b[:end])
	return f, end, ok
}

// readLiteral runs read on a canon over lit and reports whether it read
// all of lit.
func readLiteral[T any](lit string, read func(*canon) (T, bool)) (T, bool) {
	d := canon{b: []byte(lit)}
	v, ok := read(&d)
	return v, ok && d.i == len(lit)
}

// TestIntLiteralsMatchParseInt is TestFloatLiteralsBitIdentical for the
// integer reader: it must read exactly the JSON numbers strconv.ParseInt
// accepts, to the same value.
func TestIntLiteralsMatchParseInt(t *testing.T) {
	lits := []string{"0", "-0", "7", "-7", "9223372036854775807", "-9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"1234567890123456789", "-1234567890123456789", "9999999999999999999",
		"12345678901234567890", "-12345678901234567890", "18446744073709551615", "18446744073709551616",
		"99999999999999999999999", "1.0", "1e3", "-0.0", "1E0", "01", "-01", "+1", "-", "", "00"}
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 20000; k++ {
		v := int64(rng.Uint64() >> rng.Intn(64))
		if k%2 == 0 {
			v = -v
		}
		lits = append(lits, strconv.FormatInt(v, 10))
	}
	for _, lit := range lits {
		want, werr := strconv.ParseInt(lit, 10, 64)
		wantOK := werr == nil && jsonNumber(lit)
		got, ok := readLiteral(lit, (*canon).int64)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("%q: canonical read %d (ok %v), ParseInt %d (err %v)", lit, got, ok, want, werr)
		}
	}
}

// FuzzNumberLiterals feeds strings of signs, digits, dots and exponent
// marks to the canonical number readers and compares them with strconv,
// bit for bit: a literal is read when it is a JSON number strconv accepts,
// and then to strconv's value.
func FuzzNumberLiterals(f *testing.F) {
	for _, s := range []string{"0", "-0.0", "9007199254740993", "1e22", "1e23", "0.000123", "12345678901234567890", "-9223372036854775808", "1E+05",
		// The exact-division path: long mantissas, small negative exponents,
		// a halfway case, and digit runs of more than eight bytes.
		"2.6680760824756913", "1234567890123456789e-19", "9999999999999999999e-7", "-9007199254740993e-3",
		"4503599627370497.5", "0.12345678901234567", "123456789012.3456789"} {
		f.Add(s)
	}
	const alphabet = "0123456789-+.eE0123456789"
	f.Fuzz(func(t *testing.T, s string) {
		lit := make([]byte, len(s))
		for i := range lit {
			lit[i] = alphabet[int(s[i])%len(alphabet)]
		}
		num := jsonNumber(string(lit))
		want, werr := strconv.ParseFloat(string(lit), 64)
		got, end, ok := readFloat(string(lit))
		ok = ok && end == len(lit)
		if ok != (num && werr == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("%q: canonical float %v (ok %v), ParseFloat %v (err %v)", lit, got, ok, want, werr)
		}
		wantInt, ierr := strconv.ParseInt(string(lit), 10, 64)
		gotInt, ok := readLiteral(string(lit), (*canon).int64)
		if ok != (num && ierr == nil) || (ok && gotInt != wantInt) {
			t.Fatalf("%q: canonical int %d (ok %v), ParseInt %d (err %v)", lit, gotInt, ok, wantInt, ierr)
		}
	})
}

// TestStreamedDecodeMatchesEncodingJSON runs the file-loading differential
// over odd reads: a reader that returns one byte per call and one that
// returns io.EOF with its last bytes, which cannot seek and are read
// whole, and seekable sources streamed through a window smaller than one
// customer record, so that objects, keys, numbers and whitespace straddle
// refills and the customer count reads ahead. Every result must match
// encoding/json, and what this repository writes must still be read
// canonically.
func TestStreamedDecodeMatchesEncodingJSON(t *testing.T) {
	written := func(write func(io.Writer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	in := &Instance{Name: "streamed", Variant: Sectors, Antennas: []Antenna{{ID: 0, Rho: 1.0471975511965976, Range: 8, Capacity: 5}}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		in.Customers = append(in.Customers, Customer{ID: i, Theta: rng.Float64() * 6.28, R: rng.Float64() * 10, Demand: 1 + rng.Int63n(9), Profit: rng.Int63n(1 << 40)})
	}
	file := written(func(w io.Writer) error { return WriteJSON(w, in) })
	batch := written(func(w io.Writer) error { return WriteBatchJSON(w, []*Instance{in, in}) })
	compact, err := json.Marshal(instanceJSON{FormatVersion: 1, Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	// Literals longer than eight bytes, some read by exact division and
	// some by strconv, and whitespace runs of every length up to 19 bytes,
	// so that word-at-a-time scans meet the end of the small window at
	// every offset.
	lits := []string{"2.6680760824756913", "1234567890123456789e-18", "9007199254740993e-16", "3.14159265358979323846",
		"0.1234567890123456789", "4503599627370497.5e-15", "1e-19", "6.2831853071795", "12345678.87654321"}
	blank := func(k int) string {
		var b strings.Builder
		for j := range k % 20 {
			b.WriteByte(" \t\n\r  "[(k+j)%6])
		}
		return b.String()
	}
	var long strings.Builder
	long.WriteString(`{"format_version":1,"instance":{"name":"long","customers":[`)
	for i := range 60 {
		if i > 0 {
			long.WriteString("," + blank(i+1))
		}
		fmt.Fprintf(&long, `{%s"id":%d,"theta":%s%s,%s"r":%s,"demand":%d}`,
			blank(i), i, blank(i+2), lits[i%(len(lits)-1)], blank(i+3), lits[(i+4)%len(lits)], 1+i%7)
	}
	long.WriteString(`],` + blank(19) + `"antennas":[{"id":0,"rho":1.0471975511965976,"range":8,"capacity":5}]}}` + blank(17))
	if _, err := refReadJSON([]byte(long.String())); err != nil {
		t.Fatal(err)
	}
	// Flat objects the reader must take as they come: keys out of struct
	// order, an antenna's min_range, and a customer several times longer
	// than the small window.
	const antennas = `"antennas":[{"capacity":5,"range":8,"id":0,"rho":1.5},{"min_range":0.5,"id":1,"rho":2,"range":9.5,"capacity":3}]`
	reordered := `{"format_version":1,"instance":{` + antennas + `,"customers":[{"profit":9,"demand":3,"r":2.5,"theta":0.25,"id":0},{"r":1,"id":1,"demand":1,"theta":3.5}],"variant":1}}`
	longObject := `{"format_version":1,"instance":{"customers":[{"id":0,` + strings.Repeat(" \n\t", 40) +
		`"theta":0.123456789012345678901234567890,` + blank(19) + `"r":2,"demand":3}],` + antennas + `}}`
	canonical := []string{file, batch, string(compact), long.String(), reordered, longObject}
	bodies := append(append(slices.Clone(canonical), canonicalSeeds...), declinedSeeds...)
	bodies = append(bodies, file[:len(file)/2], file+" x", batch[:len(batch)-3], `{"format_version":1`,
		`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5`, `{"format_version":1,"instance":{"name":"ab`,
		strings.Replace(file, `"customers": [`, `"customers": [{"id": 9, "x": "]{{{"},`, 1),
		// A repeated key, in a customer and in an antenna.
		`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"r":2,"demand":3,"r":4}],`+antennas+`}}`,
		`{"format_version":1,"instance":{"customers":[],"antennas":[{"id":0,"rho":1,"capacity":4,"range":5,"capacity":6}]}}`,
		// A customer missing its '}': the first one found after its '{'
		// is the next object's, or an antenna's.
		`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"r":2,"demand":3,{"id":1,"theta":0.5,"r":2,"demand":3}],"antennas":[]}}`,
		`{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"r":2,"demand":3],`+antennas+`}}`,
		strings.Replace(file, "\n      },", "\n      ,", 1))

	dir := t.TempDir()
	path := filepath.Join(dir, "in.json")
	sources := map[string]func(data string) *canon{
		"one byte":      func(data string) *canon { return newCanon(iotest.OneByteReader(strings.NewReader(data)), smallWindow) },
		"data with EOF": func(data string) *canon { return newCanon(iotest.DataErrReader(strings.NewReader(data)), window) },
		"small window":  func(data string) *canon { return newCanon(strings.NewReader(data), smallWindow) },
		"file, small window": func(data string) *canon {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return newCanon(f, smallWindow)
		},
	}
	for name, src := range sources {
		for _, body := range bodies {
			got, err := readInstance(src(body))
			want, wantErr := refReadJSON([]byte(body))
			sameResult(t, name+" ReadJSON", got, want, err, wantErr)
			gotBatch, err := readBatch(src(body))
			wantBatch, wantErr := refReadBatchJSON([]byte(body))
			sameResult(t, name+" ReadBatchJSON", gotBatch, wantBatch, err, wantErr)
		}
		for _, body := range canonical {
			allow := uint(fileFields)
			if body == batch {
				allow = batchFileFields
			}
			env, ok := src(body).envelope(allow)
			if !ok {
				t.Errorf("%s: written output fell back to encoding/json:\n%s", name, body)
			}
			for _, in := range append(env.instances, env.instance) {
				if in != nil && cap(in.Customers) != len(in.Customers) {
					t.Errorf("%s: %d customers in a slice of capacity %d", name, len(in.Customers), cap(in.Customers))
				}
			}
		}
	}
}

// TestUnclosedObjectKeepsItsWindow checks that a customer whose '{' has
// no '}' for far longer than the window is declined at the first byte no
// flat object holds, rather than read on through a growing window.
func TestUnclosedObjectKeepsItsWindow(t *testing.T) {
	body := `{"format_version":1,"instance":{"customers":[{"id":0,"theta":0.5,"r":2,"x":[` +
		strings.Repeat("1, ", 4*window/3) + `1]}],"antennas":[]}}`
	d := newCanon(strings.NewReader(body), window)
	got, err := readInstance(d)
	want, wantErr := refReadJSON([]byte(body))
	sameResult(t, "ReadJSON", got, want, err, wantErr)
	if cap(d.b) > window {
		t.Errorf("the window grew to %d bytes, past its %d", cap(d.b), window)
	}
}

// TestLoadFileAllocatesLittleBeyondCustomers pins the streamed window's
// memory bound: loading a WriteJSON'd file allocates the customers once,
// at their exact count, and otherwise no more than two windows and a
// little slack, however long the file.
func TestLoadFileAllocatesLittleBeyondCustomers(t *testing.T) {
	in := &Instance{Name: "bounded", Variant: Sectors, Antennas: []Antenna{{ID: 0, Rho: 1, Range: 8, Capacity: 5}}}
	rng := rand.New(rand.NewSource(4))
	for i := range 20000 {
		in.Customers = append(in.Customers, Customer{ID: i, Theta: rng.Float64() * 6.28, R: rng.Float64() * 10, Demand: 1 + rng.Int63n(9), Profit: 1 + rng.Int63n(99)})
	}
	path := filepath.Join(t.TempDir(), "in.json")
	if err := SaveFile(path, in); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := LoadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatal("LoadFile changed the instance")
	}
	const slack = 8 << 10
	customers := uint64(len(in.Customers)) * uint64(reflect.TypeFor[Customer]().Size())
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > customers+2*window+slack {
		t.Errorf("LoadFile of %d customers (%d B) allocated %d B, more than %d B over them", len(in.Customers), customers, alloc, 2*window+slack)
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
