package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"strconv"
	"sync"
)

// SolveRequest is the single-instance request envelope: the WriteJSON
// envelope plus the per-request knobs. It is the body of sectord's /solve
// and POST /session, and sectorproxy routes both by it.
type SolveRequest struct {
	Solver        string    `json:"solver"`
	Seed          *int64    `json:"seed,omitempty"`
	TimeoutMillis int64     `json:"timeout_ms,omitempty"`
	FormatVersion int       `json:"format_version"`
	Instance      *Instance `json:"instance"`
}

// BatchRequest is the /solve/batch body: the shared knobs plus the
// WriteBatchJSON envelope. TimeoutMillis is a per-item deadline, not a
// whole-batch one.
type BatchRequest struct {
	Solver        string      `json:"solver"`
	Seed          *int64      `json:"seed,omitempty"`
	TimeoutMillis int64       `json:"timeout_ms,omitempty"`
	FormatVersion int         `json:"format_version"`
	Instances     []*Instance `json:"instances"`
}

// ParseSolveRequest decodes body when it is in canonical form (see
// DESIGN.md, "Request decoding"), returning the request and the raw bytes
// of its instance value (nil when the body has none). ok is false, and the
// results are zero, for any other input: the caller then decodes the body
// with encoding/json, which stays the reference. On canonical input the
// result is what json.Unmarshal into a SolveRequest yields.
func ParseSolveRequest(body []byte) (req SolveRequest, instance json.RawMessage, ok bool) {
	env, ok := decodeEnvelope(body, solveFields)
	if !ok {
		return SolveRequest{}, nil, false
	}
	req = SolveRequest{Solver: env.solver, Seed: env.seed, TimeoutMillis: env.timeout,
		FormatVersion: env.version, Instance: env.instance}
	return req, env.instanceRaw, true
}

// ParseBatchRequest is ParseSolveRequest for a BatchRequest body; items
// holds the raw bytes of each instance, in order.
func ParseBatchRequest(body []byte) (req BatchRequest, items []json.RawMessage, ok bool) {
	env, ok := decodeEnvelope(body, batchFields)
	if !ok {
		return BatchRequest{}, nil, false
	}
	req = BatchRequest{Solver: env.solver, Seed: env.seed, TimeoutMillis: env.timeout,
		FormatVersion: env.version, Instances: env.instances}
	return req, env.itemsRaw, true
}

// DecodeSolveRequest reads r to its end and decodes the first JSON value
// in it as a SolveRequest, rejecting unknown fields. The result and every
// error are exactly those of a json.Decoder with DisallowUnknownFields
// reading r; canonical bodies skip the reflection.
func DecodeSolveRequest(r io.Reader) (req SolveRequest, err error) {
	err = decodeBody(r, &req, func(body []byte) (ok bool) {
		req, _, ok = ParseSolveRequest(body)
		return ok
	})
	return req, err
}

// DecodeBatchRequest is DecodeSolveRequest for a BatchRequest.
func DecodeBatchRequest(r io.Reader) (req BatchRequest, err error) {
	err = decodeBody(r, &req, func(body []byte) (ok bool) {
		req, _, ok = ParseBatchRequest(body)
		return ok
	})
	return req, err
}

// bodyPool recycles the buffers request bodies are read into; neither
// decode path returns anything that aliases the buffer.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers kept in bodyPool: /solve bodies fit, and
// the rarer large bodies (sessions, batches) do not pin their memory.
const maxPooledBody = 64 << 10

// decodeBody reads r to its end and decodes the body into v with decode.
func decodeBody(r io.Reader, v any, parse func(body []byte) bool) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	_, err := buf.ReadFrom(r)
	return decode(buf.Bytes(), err, v, parse)
}

// decode decodes body, whose read ended with readErr, into v. When the read
// succeeded, parse gets the first try: it fills v and reports true when the
// body is canonical. Otherwise the encoding/json path every entry point
// falls back to runs: a json.Decoder rejecting unknown fields, fed the
// bytes read and then readErr, which is what it saw when it read the source
// itself.
func decode(body []byte, readErr error, v any, parse func(body []byte) bool) error {
	if readErr == nil && parse(body) {
		return nil
	}
	src := io.Reader(bytes.NewReader(body))
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readFile is os.ReadFile, with an error opening the file returned as
// openErr and one reading it as readErr: LoadFile returns the first bare
// and hands the second to the decoder, as when it streamed the open file.
func readFile(path string) (body []byte, readErr, openErr error) {
	body, err := os.ReadFile(path)
	var pe *fs.PathError
	if errors.As(err, &pe) && pe.Op == "open" {
		return nil, nil, err
	}
	return body, err, nil
}

// Envelope keys, as a bit set: each envelope accepts a subset, and a
// canonical body names each accepted key at most once.
const (
	fieldSolver = 1 << iota
	fieldSeed
	fieldTimeout
	fieldVersion
	fieldInstance
	fieldInstances

	fileFields      = fieldVersion | fieldInstance
	batchFileFields = fieldVersion | fieldInstances
	solveFields     = fieldSolver | fieldSeed | fieldTimeout | fieldVersion | fieldInstance
	batchFields     = fieldSolver | fieldSeed | fieldTimeout | fieldVersion | fieldInstances
)

// envelope is a canonical decode of any of the four envelopes.
type envelope struct {
	solver      string
	seed        *int64
	timeout     int64
	version     int
	instance    *Instance
	instanceRaw json.RawMessage
	instances   []*Instance
	itemsRaw    []json.RawMessage
}

// decodeEnvelope decodes body as an envelope object whose keys all lie in
// allow, followed by nothing but whitespace.
func decodeEnvelope(body []byte, allow uint) (env envelope, ok bool) {
	d := canon{b: body}
	var seen uint
	ok = d.object(func(key []byte) bool {
		var bit uint
		switch string(key) {
		case "solver":
			bit = fieldSolver
		case "seed":
			bit = fieldSeed
		case "timeout_ms":
			bit = fieldTimeout
		case "format_version":
			bit = fieldVersion
		case "instance":
			bit = fieldInstance
		case "instances":
			bit = fieldInstances
		}
		if bit&allow == 0 || !first(&seen, bit) {
			return false
		}
		var ok bool
		switch bit {
		case fieldSolver:
			var s []byte
			s, ok = d.str()
			env.solver = string(s)
		case fieldSeed:
			var v int64
			v, ok = d.int64()
			env.seed = &v
		case fieldTimeout:
			env.timeout, ok = d.int64()
		case fieldVersion:
			env.version, ok = d.int()
		case fieldInstance:
			env.instance, env.instanceRaw, ok = d.instance()
		default:
			env.instances, env.itemsRaw = []*Instance{}, []json.RawMessage{}
			ok = d.array(func() bool {
				in, raw, ok := d.instance()
				env.instances = append(env.instances, in)
				env.itemsRaw = append(env.itemsRaw, raw)
				return ok
			})
		}
		return ok
	})
	d.ws()
	if !ok || d.i != len(body) {
		return envelope{}, false
	}
	return env, true
}

// first records bit in seen, reporting false if it was already there (a
// duplicate key).
func first(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// canon reads the canonical form of the instance wire format in one pass,
// without reflection: objects with exact, unique keys from the envelope,
// Instance, Customer and Antenna field sets; strings of printable ASCII
// without escapes; numbers that strconv reads exactly as encoding/json
// does. Every method reports false on anything else, and the caller
// declines the whole input.
type canon struct {
	b []byte
	i int
}

// ws skips whitespace. It advances a local index and stores d.i once, so
// long runs of indentation cost no store per byte.
func (d *canon) ws() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// eat consumes c after optional whitespace.
func (d *canon) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object, calling member for each key with d positioned
// at its value.
func (d *canon) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') || !member(key) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// array reads an array, calling elem with d positioned at each element.
func (d *canon) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// str reads a string literal of printable ASCII without escapes; the
// contents alias the input.
func (d *canon) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number reads a literal in JSON's number grammar.
func (d *canon) number() ([]byte, bool) {
	d.ws()
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[d.i:i]
	d.i = i
	return lit, true
}

// float reads a number into a float64 the way encoding/json does; literals
// strconv rejects (out of range) are declined.
func (d *canon) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int64 reads a number into an int64 the way encoding/json does; literals
// strconv rejects (fractions, exponents, overflow) are declined.
func (d *canon) int64() (int64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
}

// int is int64 for an int field: values the platform's int cannot hold
// are declined.
func (d *canon) int() (int, bool) {
	n, ok := d.int64()
	return int(n), ok && int64(int(n)) == n
}

// instance reads an Instance object and returns its raw bytes too.
func (d *canon) instance() (*Instance, json.RawMessage, bool) {
	d.ws()
	start := d.i
	in := new(Instance)
	var seen uint
	ok := d.object(func(key []byte) bool {
		var ok bool
		var bit uint
		switch string(key) {
		case "name":
			var s []byte
			s, ok = d.str()
			in.Name, bit = string(s), 1
		case "variant":
			var v int
			v, ok = d.int()
			in.Variant, bit = Variant(v), 2
		case "customers":
			in.Customers, bit = []Customer{}, 4
			ok = d.array(func() bool {
				in.Customers = append(in.Customers, Customer{})
				return d.customer(&in.Customers[len(in.Customers)-1])
			})
		case "antennas":
			in.Antennas, bit = []Antenna{}, 8
			ok = d.array(func() bool {
				in.Antennas = append(in.Antennas, Antenna{})
				return d.antenna(&in.Antennas[len(in.Antennas)-1])
			})
		}
		return ok && first(&seen, bit)
	})
	return in, d.b[start:d.i], ok
}

func (d *canon) customer(c *Customer) bool {
	var seen uint
	return d.object(func(key []byte) bool {
		var ok bool
		var bit uint
		switch string(key) {
		case "id":
			c.ID, ok = d.int()
			bit = 1
		case "theta":
			c.Theta, ok = d.float()
			bit = 2
		case "r":
			c.R, ok = d.float()
			bit = 4
		case "demand":
			c.Demand, ok = d.int64()
			bit = 8
		case "profit":
			c.Profit, ok = d.int64()
			bit = 16
		}
		return ok && first(&seen, bit)
	})
}

func (d *canon) antenna(a *Antenna) bool {
	var seen uint
	return d.object(func(key []byte) bool {
		var ok bool
		var bit uint
		switch string(key) {
		case "id":
			a.ID, ok = d.int()
			bit = 1
		case "rho":
			a.Rho, ok = d.float()
			bit = 2
		case "range":
			a.Range, ok = d.float()
			bit = 4
		case "capacity":
			a.Capacity, ok = d.int64()
			bit = 8
		case "min_range":
			a.MinRange, ok = d.float()
			bit = 16
		}
		return ok && first(&seen, bit)
	})
}
