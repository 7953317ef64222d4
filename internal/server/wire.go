// Package server implements the concurrent SQL serving layer: a session
// manager over a length-prefixed TCP wire protocol, backed by the CBQT
// optimizer and the shared plan cache (package plancache). Each connection
// is one session with its own search strategy and optimization budget; all
// sessions share the database, the catalog version, and the plan cache, so
// a parameterized query optimized by one session executes from the cache
// in every other — the amortization the paper's shared cursor cache
// provides (§3).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/datum"
)

// MaxFrameBytes bounds a single wire frame (requests and responses); a
// peer announcing a larger frame is malformed and the connection is
// dropped.
const MaxFrameBytes = 64 << 20

// frameChunk bounds how far ReadFrame allocates ahead of the payload bytes
// that have actually arrived, so a peer that announces a large frame and
// stalls pins at most this much per connection.
const frameChunk = 1 << 20

// ErrBrokenFrame wraps every ReadFrame failure after the 4-byte header
// arrived: an oversized announcement, a short payload, or a payload the
// codec rejects. A bare ReadFrame error means the header itself never
// (fully) arrived.
var ErrBrokenFrame = errors.New("server: broken frame")

// Wire verbs. One request frame carries one verb; the server answers every
// request with exactly one response frame.
const (
	VerbHello     = "hello"      // open the session, set per-session options
	VerbPrepare   = "prepare"    // parse + bind; returns a statement id and its parameter names
	VerbBind      = "bind"       // set parameter values on a prepared statement
	VerbExecute   = "execute"    // optimize (through the plan cache) and run; opens a cursor
	VerbFetch     = "fetch"      // page rows from the statement's open cursor
	VerbCloseStmt = "close_stmt" // drop a prepared statement and its cursor
	VerbAnalyze   = "analyze"    // re-ANALYZE a table (or all), bumping the stats version
	VerbMetrics   = "metrics"    // snapshot the server registry + session counters
	VerbPing      = "ping"       // heartbeat: resets the idle timer, answered immediately
	VerbClose     = "close"      // end the session
)

// Request is one client→server message.
type Request struct {
	Verb string
	// SQL is the query text (prepare) or — for execute — optional one-shot
	// text prepared, executed and closed implicitly when Stmt is zero.
	SQL string
	// Stmt identifies a prepared statement (bind/execute/fetch/close_stmt).
	Stmt int64
	// Binds carries parameter values for bind or execute. Named values
	// match parameters case-insensitively; unnamed values bind positionally
	// in parameter-discovery order.
	Binds []BindValue
	// MaxRows bounds one fetch batch (<= 0: server default).
	MaxRows int
	// Table names the ANALYZE target ("" = every table).
	Table string
	// Options sets per-session optimizer options (hello only).
	Options *SessionOptions
	// DeadlineMS is the request's remaining time budget in milliseconds
	// (execute only; 0 = none). The deadline rides into the optimizer's
	// budget tracker (degrading the search) and the executor's context
	// (aborting the run), so a query that can no longer make its deadline
	// stops burning optimizer states and returns a typed DEADLINE error.
	DeadlineMS int64
}

// SessionOptions selects the optimizer configuration for one session.
type SessionOptions struct {
	// Strategy is the state-space search strategy name: auto, exhaustive,
	// iterative, linear, two-pass ("" = server default).
	Strategy string
	// TimeoutMS, MaxStates and MaxMemBytes populate the session's
	// cbqt.Budget (zero = unbounded).
	TimeoutMS   int64
	MaxStates   int
	MaxMemBytes int64
	// Check overrides the server's static-checker setting for this session
	// (nil = server default). Checked sessions never share cached plans
	// with unchecked ones: a violation must fail the statement that
	// requested checking, not be masked by a plan cached without it.
	Check *bool
}

// BindValue is one parameter value on the wire.
type BindValue struct {
	Name  string
	Value WireDatum
}

// Response is one server→client message.
type Response struct {
	OK    bool
	Error string
	// Code classifies a failed request (see the Code* constants): clients
	// retry OVERLOADED after backoff and treat everything else as final.
	Code string
	// Stmt echoes (or assigns, on prepare) the statement id.
	Stmt int64
	// Params lists the statement's parameter names in ordinal order.
	Params []string
	// SQL is the transformed query text (execute).
	SQL string
	// Cached reports whether execute reused a shared cached plan instead
	// of running the optimizer.
	Cached bool
	// RowCount is the total size of the cursor opened by execute.
	RowCount int
	// Affected is the row count of a mutation statement (execute of
	// INSERT/UPDATE/DELETE; such statements open an empty cursor).
	Affected int
	// Rows is one fetch batch; Done marks cursor exhaustion.
	Rows [][]WireDatum
	Done bool
	// Metrics is the registry snapshot (metrics verb).
	Metrics map[string]int64
	// Session carries the per-session counters (metrics verb).
	Session *SessionStats
}

// SessionStats are the per-session work counters reported by the metrics
// verb and logged when the session closes.
type SessionStats struct {
	ID        int64
	Prepared  int64
	Executes  int64
	CacheHits int64
	Fetches   int64
	RowsSent  int64
	// Shed counts this session's requests rejected by admission control;
	// Deadlines counts its requests failed by an expired deadline.
	Shed      int64
	Deadlines int64
}

// WireDatum is one SQL value on the wire: the datum itself, which the
// codec writes as a tag byte followed by the kind's payload.
type WireDatum struct{ datum.Datum }

// EncodeDatum converts a datum to its wire form.
func EncodeDatum(d datum.Datum) WireDatum { return WireDatum{d} }

// Decode converts the wire form back to a datum. ReadFrame already
// rejects unknown value tags, so Decode never fails.
func (w WireDatum) Decode() (datum.Datum, error) { return w.Datum, nil }

// EncodeRow converts one result row to its wire form.
func EncodeRow(row []datum.Datum) []WireDatum {
	out := make([]WireDatum, len(row))
	for i, d := range row {
		out[i] = WireDatum{d}
	}
	return out
}

// Value tags: the first byte of every value on the wire.
const (
	tagNull   byte = 0
	tagInt    byte = 1 // zigzag varint
	tagFloat  byte = 2 // 8 IEEE-754 bytes, big-endian
	tagString byte = 3 // uvarint length, then the bytes
	tagBool   byte = 4 // one byte, 0 or 1
)

// encBufs recycles WriteFrame's encode buffers; buffers grown past
// frameChunk are dropped rather than kept alive.
var encBufs sync.Pool

// WriteFrame sends one message, a *Request or a *Response, as a 4-byte
// big-endian payload length followed by the binary payload.
func WriteFrame(w io.Writer, msg any) error {
	bp, _ := encBufs.Get().(*[]byte)
	if bp == nil { // the pool is empty
		bp = new([]byte)
	}
	e := encoder{b: append((*bp)[:0], 0, 0, 0, 0)}
	switch m := msg.(type) {
	case *Request:
		e.request(m)
	case *Response:
		e.response(m)
	default:
		encBufs.Put(bp)
		return fmt.Errorf("server: cannot encode %T", msg)
	}
	var err error
	if n := len(e.b) - 4; n > MaxFrameBytes {
		err = fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	} else {
		binary.BigEndian.PutUint32(e.b, uint32(n))
		_, err = w.Write(e.b)
	}
	if cap(e.b) <= frameChunk {
		*bp = e.b
		encBufs.Put(bp)
	}
	return err
}

// ReadFrame receives one message into msg, a *Request or a *Response.
// Errors after the header wrap ErrBrokenFrame.
func ReadFrame(r io.Reader, msg any) error {
	switch msg.(type) {
	case *Request, *Response:
	default:
		return fmt.Errorf("server: cannot decode into %T", msg)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF on clean close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: peer announced %d-byte frame, limit %d", ErrBrokenFrame, n, MaxFrameBytes)
	}
	payload, err := readPayload(r, int(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the header promised more
	}
	if err != nil {
		return fmt.Errorf("%w: short payload: %w", ErrBrokenFrame, err)
	}
	d := decoder{s: payload}
	switch m := msg.(type) {
	case *Request:
		if v := d.request(); d.finish() == nil {
			*m = v
		}
	case *Response:
		if v := d.response(); d.finish() == nil {
			*m = v
		}
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrBrokenFrame, d.err)
	}
	return nil
}

// readPayload reads an n-byte payload into one string, which every decoded
// string then shares. It allocates at most frameChunk bytes ahead of what
// has arrived: larger payloads are read chunk by chunk and joined once
// complete.
func readPayload(r io.Reader, n int) (string, error) {
	first := make([]byte, min(n, frameChunk))
	if _, err := io.ReadFull(r, first); err != nil {
		return "", err
	}
	if len(first) == n {
		return string(first), nil
	}
	chunks := [][]byte{first}
	for got := len(first); got < n; {
		c := make([]byte, min(n-got, frameChunk))
		if _, err := io.ReadFull(r, c); err != nil {
			return "", err
		}
		chunks = append(chunks, c)
		got += len(c)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, c := range chunks {
		sb.Write(c)
	}
	return sb.String(), nil
}

// encoder appends a payload. Fields go in declaration order: integers as
// zigzag varints, strings and slices as a uvarint length then the
// elements, pointers behind a presence byte, values as a tag then payload.
type encoder struct{ b []byte }

func (e *encoder) uvarint(v int)  { e.b = binary.AppendUvarint(e.b, uint64(v)) }
func (e *encoder) varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) str(s string) {
	e.uvarint(len(s))
	e.b = append(e.b, s...)
}

func (e *encoder) flag(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) value(d datum.Datum) {
	switch d.Kind() {
	case datum.KInt:
		e.b = append(e.b, tagInt)
		e.varint(d.Int())
	case datum.KFloat:
		e.b = append(e.b, tagFloat)
		e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(d.Float()))
	case datum.KString:
		e.b = append(e.b, tagString)
		e.str(d.Str())
	case datum.KBool:
		e.b = append(e.b, tagBool)
		e.flag(d.Bool())
	default:
		e.b = append(e.b, tagNull)
	}
}

func (e *encoder) request(m *Request) {
	e.str(m.Verb)
	e.str(m.SQL)
	e.varint(m.Stmt)
	e.uvarint(len(m.Binds))
	for _, b := range m.Binds {
		e.str(b.Name)
		e.value(b.Value.Datum)
	}
	e.varint(int64(m.MaxRows))
	e.str(m.Table)
	e.flag(m.Options != nil)
	if m.Options != nil {
		o := m.Options
		e.str(o.Strategy)
		e.varint(o.TimeoutMS)
		e.varint(int64(o.MaxStates))
		e.varint(o.MaxMemBytes)
		e.flag(o.Check != nil)
		if o.Check != nil {
			e.flag(*o.Check)
		}
	}
	e.varint(m.DeadlineMS)
}

func (e *encoder) response(m *Response) {
	e.flag(m.OK)
	e.str(m.Error)
	e.str(m.Code)
	e.varint(m.Stmt)
	e.uvarint(len(m.Params))
	for _, p := range m.Params {
		e.str(p)
	}
	e.str(m.SQL)
	e.flag(m.Cached)
	e.varint(int64(m.RowCount))
	e.varint(int64(m.Affected))
	cells := 0
	for _, row := range m.Rows {
		cells += len(row)
	}
	e.uvarint(len(m.Rows))
	e.uvarint(cells)
	for _, row := range m.Rows {
		e.uvarint(len(row))
		for _, c := range row {
			e.value(c.Datum)
		}
	}
	e.flag(m.Done)
	// Metrics go in key order, so one message has one encoding.
	keys := make([]string, 0, len(m.Metrics))
	for k := range m.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.uvarint(len(keys))
	for _, k := range keys {
		e.str(k)
		e.varint(m.Metrics[k])
	}
	e.flag(m.Session != nil)
	if m.Session != nil {
		s := m.Session
		for _, v := range [...]int64{s.ID, s.Prepared, s.Executes, s.CacheHits, s.Fetches, s.RowsSent, s.Shed, s.Deadlines} {
			e.varint(v)
		}
	}
}

// decoder reads a payload written by encoder. The first failure sticks in
// err and empties the input, so every later read returns a zero value and
// allocates nothing.
type decoder struct {
	s   string
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.pos = len(d.s)
}

// finish rejects trailing bytes and reports the first failure.
func (d *decoder) finish() error {
	if d.err == nil && d.pos != len(d.s) {
		d.fail("%d trailing bytes", len(d.s)-d.pos)
	}
	return d.err
}

func (d *decoder) next() byte {
	if d.pos >= len(d.s) {
		d.fail("payload ends early")
		return 0
	}
	b := d.s[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := d.next()
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	d.fail("varint overflows 64 bits")
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// count reads a length whose elements each take at least minBytes of the
// payload, rejecting it before anything is allocated if the bytes left
// cannot hold that many.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if left := len(d.s) - d.pos; n > uint64(left/minBytes) {
		d.fail("length %d does not fit the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := d.s[d.pos : d.pos+n]
	d.pos += n
	return s
}

func (d *decoder) flag() bool {
	switch b := d.next(); b {
	case 0, 1:
		return b == 1
	default:
		d.fail("bad bool byte %d", b)
		return false
	}
}

func (d *decoder) value() datum.Datum {
	switch tag := d.next(); tag {
	case tagNull:
		return datum.Null
	case tagInt:
		return datum.NewInt(d.varint())
	case tagFloat:
		if len(d.s)-d.pos < 8 {
			d.fail("float needs 8 bytes, %d left", len(d.s)-d.pos)
			return datum.Null
		}
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(d.s[d.pos+i])
		}
		d.pos += 8
		return datum.NewFloat(math.Float64frombits(bits))
	case tagString:
		return datum.NewString(d.str())
	case tagBool:
		return datum.NewBool(d.flag())
	default:
		d.fail("unknown value tag %d", tag)
		return datum.Null
	}
}

func (d *decoder) request() (m Request) {
	m.Verb = d.str()
	m.SQL = d.str()
	m.Stmt = d.varint()
	if n := d.count(2); n > 0 {
		m.Binds = make([]BindValue, n)
		for i := range m.Binds {
			m.Binds[i] = BindValue{Name: d.str(), Value: WireDatum{d.value()}}
		}
	}
	m.MaxRows = int(d.varint())
	m.Table = d.str()
	if d.flag() {
		o := &SessionOptions{Strategy: d.str(), TimeoutMS: d.varint(), MaxStates: int(d.varint()), MaxMemBytes: d.varint()}
		if d.flag() {
			c := d.flag()
			o.Check = &c
		}
		m.Options = o
	}
	m.DeadlineMS = d.varint()
	return m
}

func (d *decoder) response() (m Response) {
	m.OK = d.flag()
	m.Error = d.str()
	m.Code = d.str()
	m.Stmt = d.varint()
	if n := d.count(1); n > 0 {
		m.Params = make([]string, n)
		for i := range m.Params {
			m.Params[i] = d.str()
		}
	}
	m.SQL = d.str()
	m.Cached = d.flag()
	m.RowCount = int(d.varint())
	m.Affected = int(d.varint())
	m.Rows = d.rows()
	m.Done = d.flag()
	if n := d.count(2); n > 0 {
		m.Metrics = make(map[string]int64, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail("metric %q out of order", k)
			}
			m.Metrics[k], prev = d.varint(), k
		}
	}
	if d.flag() {
		m.Session = &SessionStats{
			ID: d.varint(), Prepared: d.varint(), Executes: d.varint(), CacheHits: d.varint(),
			Fetches: d.varint(), RowsSent: d.varint(), Shed: d.varint(), Deadlines: d.varint(),
		}
	}
	return m
}

// rows decodes a fetch page: the row count, the total cell count, then
// each row's width and cells. Every row slices one backing array.
func (d *decoder) rows() [][]WireDatum {
	nrows := d.count(1)
	ncells := d.count(1)
	if nrows+ncells > len(d.s)-d.pos {
		d.fail("%d rows of %d cells do not fit the %d bytes left", nrows, ncells, len(d.s)-d.pos)
		return nil
	}
	if nrows == 0 {
		if ncells != 0 {
			d.fail("%d cells in no rows", ncells)
		}
		return nil
	}
	cells := make([]WireDatum, ncells)
	rows := make([][]WireDatum, nrows)
	k := 0
	for i := range rows {
		w := d.uvarint()
		if w > uint64(ncells-k) {
			d.fail("row %d is %d wide, %d cells left", i, w, ncells-k)
			return nil
		}
		row := cells[k : k+int(w) : k+int(w)]
		for j := range row {
			row[j].Datum = d.value()
		}
		rows[i] = row
		k += int(w)
	}
	if k != ncells {
		d.fail("rows hold %d of %d cells", k, ncells)
		return nil
	}
	return rows
}
