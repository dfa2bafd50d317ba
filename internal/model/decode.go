package model

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"slices"
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

// SolveResponse is the wire form of one solve: sectord's /solve reply,
// each solved /solve/batch item and the session replies all carry it, and
// clients decode it. Orientation and Owner are the Assignment.
type SolveResponse struct {
	Solver      string    `json:"solver"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound,omitempty"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	ElapsedMS   float64   `json:"elapsed_ms"`

	// Degraded-mode provenance (?degraded=allow): set when the requested
	// solver failed and the hedged fallback answered instead.
	Degraded       bool   `json:"degraded,omitempty"`
	SolverUsed     string `json:"solver_used,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	FallbackDetail string `json:"fallback_detail,omitempty"`
	HedgeWin       bool   `json:"hedge_win,omitempty"`
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
// DESIGN.md, "Request decoding"). ok is false, and req is zero, for any
// other input: the caller then decodes the body with encoding/json, which
// stays the reference. On canonical input the result is what
// json.Unmarshal into a SolveRequest yields.
func ParseSolveRequest(body []byte) (req SolveRequest, ok bool) {
	env, ok := decodeEnvelope(body, solveFields)
	return env.solveRequest(), ok
}

// DecodeSolveRequest reads r to its end and decodes the first JSON value
// in it as a SolveRequest, rejecting unknown fields. The result and every
// error are exactly those of a json.Decoder with DisallowUnknownFields
// reading r; canonical bodies skip the reflection.
func DecodeSolveRequest(r io.Reader) (req SolveRequest, err error) {
	err = decodeBody(r, &req, solveFields, func(env envelope) { req = env.solveRequest() })
	return req, err
}

// DecodeBatchRequest is DecodeSolveRequest for a BatchRequest.
func DecodeBatchRequest(r io.Reader) (req BatchRequest, err error) {
	err = decodeBody(r, &req, batchFields, func(env envelope) { req = env.batchRequest() })
	return req, err
}

// bodyPool recycles the buffers request bodies are read into; neither
// decode path returns anything that aliases the buffer.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers kept in bodyPool: /solve bodies fit, and
// the rarer large bodies (sessions, batches) do not pin their memory.
const maxPooledBody = 64 << 10

// decodeBody reads r to its end and decodes the body with decode. The
// body is all the input the decoder gets, so it has nothing to refill.
func decodeBody(r io.Reader, v any, allow uint, set func(envelope)) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	_, err := buf.ReadFrom(r)
	d := canon{b: buf.Bytes(), err: err}
	return decode(&d, v, allow, set)
}

// readAll returns a canon over all of r, read into one buffer the way
// decodeBody reads a body: the file loaders' read of a source that cannot
// seek.
func readAll(r io.Reader) *canon {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return &canon{b: buf.Bytes(), err: err}
}

// decode decodes d's input, an envelope with the keys in allow. Unless a
// read of a whole-buffer input failed, the canonical reader gets the
// first try, and set receives what it read. Otherwise the encoding/json
// path every entry point falls back to decodes into v: a json.Decoder
// rejecting unknown fields, fed d's input from its start (d.replay), which
// is what it saw when it read the source itself. Like the canonical path,
// the fall-back reads a stream to its end.
func decode(d *canon, v any, allow uint, set func(envelope)) error {
	if d.err == nil {
		if env, ok := d.envelope(allow); ok {
			set(env)
			return nil
		}
	}
	src, err := d.replay()
	if err != nil {
		return err
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err = dec.Decode(v)
	if d.r != nil {
		_, _ = io.Copy(io.Discard, d.r) // the decode has its result; a read error here changes nothing
	}
	return err
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

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
	solver    string
	seed      *int64
	timeout   int64
	version   int
	instance  *Instance
	instances []*Instance
}

func (env envelope) solveRequest() SolveRequest {
	return SolveRequest{Solver: env.solver, Seed: env.seed, TimeoutMillis: env.timeout,
		FormatVersion: env.version, Instance: env.instance}
}

func (env envelope) batchRequest() BatchRequest {
	return BatchRequest{Solver: env.solver, Seed: env.seed, TimeoutMillis: env.timeout,
		FormatVersion: env.version, Instances: env.instances}
}

// decodeEnvelope decodes body as an envelope object whose keys all lie in
// allow, followed by nothing but whitespace.
func decodeEnvelope(body []byte, allow uint) (envelope, bool) {
	d := canon{b: body}
	return d.envelope(allow)
}

// envelope reads d's input as an envelope object whose keys all lie in
// allow, followed by nothing but whitespace up to a clean end of input.
// On failure the envelope is zero.
func (d *canon) envelope(allow uint) (env envelope, ok bool) {
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
			env.instance, ok = d.instance()
		default:
			env.instances = []*Instance{}
			ok = d.array(func() bool {
				in, ok := d.instance()
				env.instances = append(env.instances, in)
				return ok
			})
		}
		return ok
	})
	d.ws()
	if !ok || d.i != len(d.b) || (d.r != nil && d.err != io.EOF) {
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
// without escapes; numbers read to exactly the value strconv gives
// encoding/json. Every method reports false on anything else, and the
// caller declines the whole input.
//
// The input is b, and with a reader r also what r holds past b. A scan
// that reaches the end of b reads more (more, refill) into b, a window
// that slides: bytes before i are dropped, and replay rewinds r to where
// decoding began. Customers and antennas, the bulk of an instance, are
// flat objects: flat refills once per object, not once per token.
type canon struct {
	b     []byte
	i     int
	r     io.ReadSeeker // input past b; nil when b is all of it
	err   error         // what ended the reads of the input: io.EOF, or a read error
	start int64         // r's offset where decoding began
}

// window is the buffer size streamed decodes start with; b grows past it
// only for a token, or a flat object, longer than it.
const window = 64 << 10

// newCanon returns a canon reading r through a window of size bytes when
// r can seek, and otherwise one holding all of r.
func newCanon(r io.Reader, size int) *canon {
	if s, ok := r.(io.ReadSeeker); ok {
		if off, err := s.Seek(0, io.SeekCurrent); err == nil {
			return &canon{b: make([]byte, 0, size), r: s, start: off}
		}
	}
	return readAll(r)
}

// more appends input to b, after sliding the window past the consumed
// bytes b[:i]; it reports whether any input arrived.
func (d *canon) more() bool {
	if d.r == nil || d.err != nil {
		return false
	}
	if d.i > 0 {
		n := copy(d.b, d.b[d.i:])
		d.b, d.i = d.b[:n], 0
	}
	if len(d.b) == cap(d.b) {
		d.b = slices.Grow(d.b, cap(d.b))
	}
	for {
		n, err := d.r.Read(d.b[len(d.b):cap(d.b)])
		d.b = d.b[:len(d.b)+n]
		if err != nil {
			d.err = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
}

// refill is more for a scan of the token at b[i:] that has reached
// j = len(b): it returns j rebased onto the slid window, and whether b[j]
// now exists.
func (d *canon) refill(j int) (int, bool) {
	rel := j - d.i
	ok := d.more()
	return d.i + rel, ok
}

// replay returns a reader of d's input from its start: r rewound, or b
// followed by the read error that ended it, if any.
func (d *canon) replay() (io.Reader, error) {
	if d.r != nil {
		_, err := d.r.Seek(d.start, io.SeekStart)
		return d.r, err
	}
	src := io.Reader(bytes.NewReader(d.b))
	if d.err != nil {
		src = io.MultiReader(src, errReader{d.err})
	}
	return src, nil
}

// elems returns a capacity for the array of flat objects (no nested
// arrays, no strings) whose '[' was just read: its count of '{' before the
// first ']', read ahead without consuming input. On input that is not
// such an array it is only a poor hint; it never exceeds a third of the
// bytes it counted over, the most elements those bytes can hold, so a
// bogus count costs no more memory than valid elements would.
func (d *canon) elems() int {
	n, span, done := countElems(d.b[d.i:])
	if done || d.r == nil || d.err != nil {
		return min(n, (span+1)/3)
	}
	// Read on through the window, then rewind to the array.
	here, err := d.r.Seek(0, io.SeekCurrent)
	if err != nil {
		return min(n, (span+1)/3)
	}
	here -= int64(len(d.b) - d.i)
	d.b, d.i = d.b[:cap(d.b)], 0
	for !done {
		m, err := d.r.Read(d.b)
		var k, s int
		k, s, done = countElems(d.b[:m])
		n, span = n+k, span+s
		if err != nil {
			break
		}
	}
	d.b = d.b[:0]
	if _, err := d.r.Seek(here, io.SeekStart); err != nil {
		d.err = err
	}
	return min(n, (span+1)/3)
}

// countElems counts the '{' in b before the first ']', the bytes it
// looked at, and whether it found the ']'.
func countElems(b []byte) (n, span int, done bool) {
	if j := bytes.IndexByte(b, ']'); j >= 0 {
		return bytes.Count(b[:j], []byte{'{'}), j, true
	}
	return bytes.Count(b, []byte{'{'}), len(b), false
}

// ws skips whitespace. It advances a local index and stores d.i once per
// window, so long runs of indentation cost no store per byte. A byte loop
// beats eight-byte tests here: on the indentation WriteJSON emits (runs
// of 1, 7 and 9 bytes) it is the loop's exit, not its length, that costs.
func (d *canon) ws() {
	i := d.i
	for {
		b := d.b
		for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
		if i < len(b) {
			break
		}
		d.i = i
		var ok bool
		if i, ok = d.refill(i); !ok {
			break
		}
	}
	d.i = i
}

// eat consumes c after optional whitespace.
func (d *canon) eat(c byte) bool {
	d.skip()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// skip is ws for a caller expecting a token: it returns at once when the
// next byte is not whitespace.
func (d *canon) skip() {
	if d.i == len(d.b) || d.b[d.i] <= ' ' {
		d.ws()
	}
}

// next reads what follows an object member or array element: a comma,
// when more follow, or the closing byte.
func (d *canon) next(closing byte) (more, ok bool) {
	d.skip()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			return true, true
		case closing:
			d.i++
			return false, true
		}
	}
	return false, false
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
		key, ok := d.key()
		if !ok || !member(key) {
			return false
		}
		if more, ok := d.next('}'); !more {
			return ok
		}
	}
}

// array reads an array, calling elem with d positioned at each element.
func (d *canon) array(elem func() bool) bool {
	return d.eat('[') && d.rest(elem)
}

// rest reads the elements of an array whose '[' was just read.
func (d *canon) rest(elem func() bool) bool {
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if more, ok := d.next(']'); !more {
			return ok
		}
	}
}

// str reads a string literal of printable ASCII without escapes; the
// contents alias the input until the next read.
func (d *canon) str() ([]byte, bool) {
	j, ok := d.quoted()
	if !ok {
		return nil, false
	}
	s := d.b[d.i:j]
	d.i = j + 1
	return s, true
}

// key reads an object key, as str does, and the colon after it. d.i stays
// on the key until the colon is read, so a slide of the window keeps it.
func (d *canon) key() ([]byte, bool) {
	j, ok := d.quoted()
	if !ok {
		return nil, false
	}
	n := j - d.i
	for j++; ; j++ {
		if j == len(d.b) {
			if j, ok = d.refill(j); !ok {
				return nil, false
			}
		}
		switch d.b[j] {
		case ':':
			key := d.b[d.i : d.i+n]
			d.i = j + 1
			return key, true
		case ' ', '\t', '\n', '\r':
		default:
			return nil, false
		}
	}
}

// quoted reads the opening quote of a string literal, leaving d.i on its
// contents, and returns the index of its closing quote.
func (d *canon) quoted() (int, bool) {
	if !d.eat('"') {
		return 0, false
	}
	j := d.i
	for {
		b := d.b
		for ; j < len(b); j++ {
			switch c := b[j]; {
			case c == '"':
				return j, true
			case c < ' ' || c == '\\' || c >= 0x80:
				return 0, false
			}
		}
		var ok bool
		if j, ok = d.refill(j); !ok {
			return 0, false
		}
	}
}

// num is a number literal as scanNumber walked it.
type num struct {
	mant    uint64 // the digits without the dot, as an integer, when digits ≤ 19
	digits  int    // digits before the exponent, leading zeros included
	exp     int    // the power of ten mant is scaled by
	neg     bool
	integer bool // no fraction or exponent
}

// number reads a literal in JSON's number grammar into n; it ends at
// b[d.i].
func (d *canon) number(n *num) bool {
	d.skip()
	for {
		end, ok := scanNumber(n, d.b, d.i)
		if end == len(d.b) {
			// The literal may go on past the input read so far: scan it
			// again with more. A window may slide even when no more comes.
			var more bool
			if end, more = d.refill(end); more {
				continue
			}
		}
		if ok {
			d.i = end
		}
		return ok
	}
}

// scanNumber scans the number literal at b[i:] into n, accumulating its
// digits as it walks them, in a local so that they stay in a register.
// end is where the literal ends, or where the scan stopped when ok is
// false.
func scanNumber(n *num, b []byte, i int) (end int, ok bool) {
	*n = num{}
	var mant uint64
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	from := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == from {
			return i, false
		}
	}
	n.digits, n.integer = i-from, true
	if i < len(b) && b[i] == '.' {
		i++
		from = i
		if i, mant = fraction(b, i, mant); i == from {
			return i, false
		}
		n.digits += i - from
		n.exp, n.integer = from-i, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		n.integer = false
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		e := 0
		for from = i; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1<<20 { // past any float64 exponent; stop before overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == from {
			return i, false
		}
		if neg {
			e = -e
		}
		n.exp += e
	}
	n.mant = mant
	return i, true
}

// fraction accumulates the digits of a fraction, the run at b[i:], into
// mant, and returns the index past it and the new mant. Inside b it takes
// eight digits a step while there are eight; the rest, and the last bytes
// of b, go through the byte loop. Fractions are where long runs are: encoding/json
// writes 15 to 17 significant digits, nearly all after the dot, while
// integer parts and integers are short enough that the eight-byte test
// costs more than it saves. Past 19 digits mant wraps around, as the byte
// loop's does, and is not used.
func fraction(b []byte, i int, mant uint64) (int, uint64) {
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(x) {
			break
		}
		mant = mant*1e8 + parseEight(x)
		i += 8
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return i, mant
}

// lanes repeats a byte in each of the eight bytes of a word.
const lanes = 0x0101010101010101

// eightDigits reports whether all eight bytes of the little-endian word x
// are ASCII digits: each has high nibble 3, and a low nibble that stays
// below 16 when 6 is added. A byte whose sum carries into the next has
// high nibble f, so the carry never turns a false answer true.
func eightDigits(x uint64) bool {
	return x&(0xf0*lanes)|(x+0x06*lanes)&(0xf0*lanes)>>4 == 0x33*lanes
}

// parseEight returns the value of the eight ASCII digits of the
// little-endian word x, the first byte the most significant: pairs of
// digits, then the two halves of four pairs (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021).
func parseEight(x uint64) uint64 {
	x -= '0' * lanes
	x = x*10 + x>>8
	return (x&0x000000ff000000ff*(100+1000000<<32) + x>>16&0x000000ff000000ff*(1+10000<<32)) >> 32
}

// pow10u holds the powers of ten a uint64 holds.
var pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float returns the float64 encoding/json reads from n, the literal lit;
// literals strconv rejects (out of range) are declined. Two kinds of
// literal are converted here, to the correctly rounded value
// strconv.ParseFloat returns:
//
//   - a mantissa of at most 2^53 scaled by at most 10^±22: one IEEE
//     multiply or divide of two exact operands, so correctly rounded
//     (Clinger, "How to Read Floating Point Numbers Accurately", 1990);
//   - any other mantissa of at most 19 digits with a decimal exponent in
//     [−19, 0], the 17-digit fractions encoding/json writes among them:
//     one exact integer division (divPow10).
//
// Every other literal goes to strconv.
func (n *num) float(lit []byte) (float64, bool) {
	var f float64
	switch {
	case n.digits > 19:
		return parseFloat(lit)
	case n.mant <= 1<<53 && -len(pow10) < n.exp && n.exp < len(pow10):
		f = float64(n.mant)
		if n.exp < 0 {
			f /= pow10[-n.exp]
		} else {
			f *= pow10[n.exp]
		}
	case -len(pow10u) < n.exp && n.exp <= 0:
		f = divPow10(n.mant, -n.exp)
	default:
		return parseFloat(lit)
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// parseFloat reads lit with strconv.
func parseFloat(lit []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// divPow10 returns mant/10^k rounded to the nearest float64, ties to even,
// for mant > 0 and k < len(pow10u). Both operands are shifted up to 64
// significant bits, and the numerator is halved if it is the larger, so
// the 128-by-64-bit quotient has exactly 64 significant bits. The top 53
// are the result's mantissa, the next bit is the rounding bit, and the
// bits below it and the remainder are the sticky bits. The quotient is at
// least 10^-19, far above the subnormals.
func divPow10(mant uint64, k int) float64 {
	den := pow10u[k]
	sn, sd := bits.LeadingZeros64(mant), bits.LeadingZeros64(den)
	top, den := mant<<sn, den<<sd
	e := sd - sn - 64 // mant/10^k = (top<<64 / den) · 2^e
	hi, lo := top, uint64(0)
	if top >= den {
		hi, lo = top>>1, top<<63
		e++
	}
	q, rem := bits.Div64(hi, lo, den)
	const drop = 64 - 53
	m := q >> drop
	if low := q & (1<<drop - 1); low > 1<<(drop-1) || low == 1<<(drop-1) && (rem != 0 || m&1 != 0) {
		m++
	}
	e += drop
	if m == 1<<53 {
		m >>= 1
		e++
	}
	return math.Float64frombits(uint64(e+52+1023)<<52 | m&(1<<52-1))
}

// int64 returns the int64 encoding/json reads from n; literals
// strconv.ParseInt rejects (fractions, exponents, overflow) are declined.
// The grammar allows no leading zeros, so a literal of 20 or more digits
// overflows, and 19 digits fit mant exactly.
func (n *num) int64() (int64, bool) {
	if !n.integer || n.digits > 19 {
		return 0, false
	}
	if n.neg {
		return -int64(n.mant), n.mant <= 1<<63
	}
	return int64(n.mant), n.mant <= math.MaxInt64
}

// int64 reads a number into an int64 as num.int64 does.
func (d *canon) int64() (int64, bool) {
	var n num
	if !d.number(&n) {
		return 0, false
	}
	return n.int64()
}

// int is int64 for an int field: values the platform's int cannot hold
// are declined.
func (d *canon) int() (int, bool) {
	n, ok := d.int64()
	return int(n), ok && int64(int(n)) == n
}

// instance reads an Instance object.
func (d *canon) instance() (*Instance, bool) {
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
			bit = 4
			if ok = d.eat('['); ok {
				in.Customers = make([]Customer, 0, d.elems())
				ok = d.rest(func() bool {
					in.Customers = append(in.Customers, Customer{})
					return d.customer(&in.Customers[len(in.Customers)-1])
				})
			}
		case "antennas":
			in.Antennas, bit = []Antenna{}, 8
			ok = d.array(func() bool {
				in.Antennas = append(in.Antennas, Antenna{})
				return d.antenna(&in.Antennas[len(in.Antennas)-1])
			})
		}
		return ok && first(&seen, bit)
	})
	return in, ok
}

// A flat object is an object whose values are all numbers: a Customer or
// an Antenna. Its type's field table names its keys and how each value is
// read; bit k of a seen set is field k.
type flatField struct {
	key  string // quotes included: as no key holds a '"', input that begins with it is this key
	kind numKind
}

// numKind is how a flat field's value is read.
type numKind uint8

const (
	asFloat numKind = iota
	asInt64
	asInt
)

// The field tables, in struct order: the order WriteJSON writes.
var (
	customerFields = [...]flatField{{`"id"`, asInt}, {`"theta"`, asFloat}, {`"r"`, asFloat}, {`"demand"`, asInt64}, {`"profit"`, asInt64}}
	antennaFields  = [...]flatField{{`"id"`, asInt}, {`"rho"`, asFloat}, {`"range"`, asFloat}, {`"capacity"`, asInt64}, {`"min_range"`, asFloat}}
)

func (d *canon) customer(c *Customer) bool {
	var v [len(customerFields)]uint64
	if !d.flat(customerFields[:], v[:]) {
		return false
	}
	*c = Customer{ID: int(int64(v[0])), Theta: math.Float64frombits(v[1]), R: math.Float64frombits(v[2]),
		Demand: int64(v[3]), Profit: int64(v[4])}
	return true
}

func (d *canon) antenna(a *Antenna) bool {
	var v [len(antennaFields)]uint64
	if !d.flat(antennaFields[:], v[:]) {
		return false
	}
	*a = Antenna{ID: int(int64(v[0])), Rho: math.Float64frombits(v[1]), Range: math.Float64frombits(v[2]),
		Capacity: int64(v[3]), MinRange: math.Float64frombits(v[4])}
	return true
}

// flat reads a flat object whose keys are those of fields, in any order
// and each at most once, into vals: field k's value as its bits (a
// float64's IEEE bits, an integer's two's complement), or 0 when the key
// is absent. It first makes sure the window holds the object's closing
// brace, the first '}' after its '{', and then scans the members from that
// slice, with no refill. On anything else it reports false; a '}' found
// outside the object (a string's, or the next object's) leaves a member
// unfinished, and is declined as such.
func (d *canon) flat(fields []flatField, vals []uint64) bool {
	d.skip()
	if d.i == len(d.b) || d.b[d.i] != '{' {
		return false
	}
	end, ok := d.closing()
	if !ok {
		return false
	}
	b := d.b[:end+1] // b[end] == '}' ends every scan below
	i := skipWS(b, d.i+1)
	if b[i] == '}' {
		d.i = i + 1
		return true
	}
	var (
		seen uint
		next int // the field tried first: keys usually come in table order
		n    num
	)
	for {
		k := next
		if k == len(fields) || !hasKey(b[i:end], fields[k].key) {
			for k = 0; k < len(fields) && !hasKey(b[i:end], fields[k].key); k++ {
			}
			if k == len(fields) {
				return false
			}
		}
		if i = skipWS(b, i+len(fields[k].key)); b[i] != ':' || !first(&seen, 1<<k) {
			return false
		}
		next = k + 1
		from := skipWS(b, i+1)
		if i, ok = scanNumber(&n, b, from); !ok {
			return false
		}
		switch fields[k].kind {
		case asFloat:
			var f float64
			f, ok = n.float(b[from:i])
			vals[k] = math.Float64bits(f)
		default:
			var v int64
			v, ok = n.int64()
			ok = ok && (fields[k].kind == asInt64 || int64(int(v)) == v)
			vals[k] = uint64(v)
		}
		if !ok {
			return false
		}
		switch i = skipWS(b, i); b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			d.i = i + 1
			return true
		default:
			return false
		}
	}
}

// closing returns the index of the first '}' after the '{' at b[d.i],
// sliding and refilling the window until it holds one. As for a token, the
// window grows only when the object is longer than it. A stretch with no
// '}' that holds a byte no flat object of numbers can hold (a '[', a '{',
// a capital other than 'E') is declined before the window refills, so
// the window grows past a '{' that is never closed only over bytes a flat
// object could hold.
func (d *canon) closing() (int, bool) {
	for j := d.i + 1; ; {
		if k := bytes.IndexByte(d.b[j:], '}'); k >= 0 {
			return j + k, true
		}
		for _, c := range d.b[j:] {
			if !inFlat[c] {
				return 0, false
			}
		}
		var ok bool
		if j, ok = d.refill(len(d.b)); !ok {
			return 0, false
		}
	}
}

// inFlat[c] reports whether byte c can appear in a flat object of
// numbers: whitespace, the punctuation of keys and numbers, digits, an
// exponent's 'E', and the lower-case letters and '_' of keys.
var inFlat = func() (t [256]bool) {
	for _, c := range []byte(" \t\n\r\":,+-.0123456789E_abcdefghijklmnopqrstuvwxyz") {
		t[c] = true
	}
	return t
}()

// hasKey reports whether b begins with key.
func hasKey(b []byte, key string) bool {
	return len(b) >= len(key) && string(b[:len(key)]) == key
}

// skipWS returns the index of the first byte at or after b[i] that is not
// whitespace; b must end in a byte that is not.
func skipWS(b []byte, i int) int {
	for b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}
