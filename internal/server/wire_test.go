package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/datum"
	"repro/internal/testkit"
)

// wireValues covers every value tag and the integer and float extremes.
var wireValues = []WireDatum{
	{datum.Null},
	{datum.NewInt(math.MinInt64)},
	{datum.NewInt(math.MaxInt64)},
	{datum.NewInt(-1)},
	{datum.NewFloat(-2.5)},
	{datum.NewFloat(math.Inf(1))},
	{datum.NewString("")},
	{datum.NewString("héllo")},
	{datum.NewBool(true)},
	{datum.NewBool(false)},
}

// filler sets every exported field of a value to something non-zero,
// cycling through extremes, so a field the codec forgets decodes as zero
// and fails the comparison.
type filler struct{ n int }

func (f *filler) fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	f.n++
	switch v.Type() {
	case reflect.TypeOf(WireDatum{}):
		v.Set(reflect.ValueOf(wireValues[f.n%len(wireValues)]))
		return
	case reflect.TypeOf([][]WireDatum{}):
		// Rows of widths 0..len(wireValues), every value in every row.
		rows := make([][]WireDatum, len(wireValues)+1)
		for i := range rows {
			rows[i] = make([]WireDatum, i)
			for j := range rows[i] {
				rows[i][j] = wireValues[(i+j)%len(wireValues)]
			}
		}
		v.Set(reflect.ValueOf(rows))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(path + "\x00\xff")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		if f.n%2 == 0 {
			v.SetInt(math.MinInt64)
		} else {
			v.SetInt(math.MaxInt64)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(t, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				t.Fatalf("%s.%s: unexported field on the wire", path, sf.Name)
			}
			f.fill(t, v.Field(i), path+"."+sf.Name)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			f.fill(t, v.Index(i), path+"[]")
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 3; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(t, k, path+"[key]")
			k.SetString(k.String() + string(rune('a'+i)))
			f.fill(t, e, path+"[elem]")
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("%s: the filler has no case for %s", path, v.Type())
	}
	if v.IsZero() {
		t.Fatalf("%s: filled value is still zero", path)
	}
}

// TestWireRoundTripEveryField fills every exported field of Request and
// Response, nested types included, and requires the codec to return an
// equal message: a field added without codec support fails here.
func TestWireRoundTripEveryField(t *testing.T) {
	for _, msg := range []any{&Request{}, &Response{}} {
		f := &filler{}
		v := reflect.ValueOf(msg).Elem()
		f.fill(t, v, v.Type().Name())
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatal(err)
		}
		got := reflect.New(v.Type())
		if err := ReadFrame(&buf, got.Interface()); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(got.Interface(), msg) {
			t.Fatalf("%T did not round-trip:\n got %+v\nwant %+v", msg, got.Elem(), v)
		}
		if buf.Len() != 0 {
			t.Fatalf("%T: %d bytes left after one frame", msg, buf.Len())
		}
	}
}

// frame prefixes payload with its 4-byte length.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func encodeFrame(t testing.TB, msg any) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFrameRejects: every failure after the header wraps
// ErrBrokenFrame, while a missing or partial header stays bare.
func TestReadFrameRejects(t *testing.T) {
	page := encodeFrame(t, &Response{OK: true, Rows: [][]WireDatum{EncodeRow([]datum.Datum{datum.NewInt(7), datum.NewString("x")})}})
	payload := page[4:]
	// The payload's row block starts after OK, Error, Code, Stmt,
	// Params, SQL, Cached, RowCount and Affected: nine zero-ish bytes.
	const rowsAt = 9
	if !bytes.Equal(payload[rowsAt:rowsAt+3], []byte{1, 2, 2}) {
		t.Fatalf("row block not at byte %d: % x", rowsAt, payload)
	}
	edit := func(at int, b ...byte) []byte {
		p := bytes.Clone(payload)
		copy(p[at:], b)
		return frame(p)
	}
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrameBytes+1)
	cases := []struct {
		name   string
		in     []byte
		broken bool
	}{
		{"empty stream", nil, false},
		{"partial header", []byte{0, 0}, false},
		{"oversized announcement", oversize, true},
		{"truncated payload", page[:len(page)-1], true},
		{"trailing bytes", frame(append(bytes.Clone(payload), 0)), true},
		{"unknown value tag", edit(rowsAt+3, 9), true},
		{"bad bool byte", frame(append([]byte{2}, payload[1:]...)), true},
		{"row count past the payload", edit(rowsAt, 100), true},
		{"cell count past the payload", edit(rowsAt+1, 100), true},
		{"row wider than the cells", edit(rowsAt+2, 3), true},
		{"cells left over", edit(rowsAt+1, 3), true},
		{"string length past the payload", frame([]byte{0, 50}), true},
		{"varint overflow", frame(append([]byte{0, 0, 0}, bytes.Repeat([]byte{0xff}, 10)...)), true},
	}
	for _, tc := range cases {
		var resp Response
		err := ReadFrame(bytes.NewReader(tc.in), &resp)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if errors.Is(err, ErrBrokenFrame) != tc.broken {
			t.Errorf("%s: errors.Is(%v, ErrBrokenFrame) = %v, want %v", tc.name, err, !tc.broken, tc.broken)
		}
	}
	var resp Response
	if err := ReadFrame(bytes.NewReader(page), &resp); err != nil || resp.Rows[0][1].Str() != "x" {
		t.Fatalf("unedited page: %v, %+v", err, resp)
	}
}

// stallAfter yields hdr and then EOF: a peer that announces a frame and
// never sends it.
type stallAfter struct{ hdr []byte }

func (s *stallAfter) Read(p []byte) (int, error) {
	if len(s.hdr) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.hdr)
	s.hdr = s.hdr[n:]
	return n, nil
}

// TestReadFrameBoundsHostileHeader: a MaxFrameBytes announcement followed
// by nothing allocates at most one chunk, not the announced size.
func TestReadFrameBoundsHostileHeader(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var resp Response
	err := ReadFrame(&stallAfter{hdr: binary.BigEndian.AppendUint32(nil, MaxFrameBytes)}, &resp)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBrokenFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want a broken frame from an unexpected EOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
		t.Fatalf("a stalled %d-byte announcement allocated %d bytes", MaxFrameBytes, d)
	}
}

// TestReadFrameLargePayload crosses the chunk boundary: a frame bigger
// than frameChunk arrives in pieces and still decodes whole.
func TestReadFrameLargePayload(t *testing.T) {
	big := string(bytes.Repeat([]byte("abcdefgh"), frameChunk/4))
	in := encodeFrame(t, &Request{Verb: VerbPrepare, SQL: big, Table: "t"})
	var got Request
	if err := ReadFrame(iotest.HalfReader(bytes.NewReader(in)), &got); err != nil {
		t.Fatal(err)
	}
	if got.SQL != big || got.Table != "t" {
		t.Fatalf("large frame decoded to %d-byte SQL, table %q", len(got.SQL), got.Table)
	}
}

// TestRoundTripClassifiesFrameErrors: the client classifies transport
// failures by ErrBrokenFrame, not by message text. A response whose header
// never arrived is a retryable CONN_RESET; one that started and then broke
// is CONN_BROKEN.
func TestRoundTripClassifiesFrameErrors(t *testing.T) {
	testkit.LeakCheck(t)
	page := encodeFrame(t, &Response{OK: true, Rows: [][]WireDatum{EncodeRow([]datum.Datum{datum.NewInt(7)})}})
	// The cell's tag byte precedes its one-byte varint and the trailing
	// Done, Metrics and Session fields.
	malformed := bytes.Clone(page)
	if at := len(malformed) - 5; malformed[at] != tagInt {
		t.Fatalf("cell tag not at byte %d: % x", at, malformed)
	} else {
		malformed[at] = 9
	}
	cases := []struct {
		name  string
		reply []byte
		code  string
	}{
		{"header never arrives", nil, CodeConnReset},
		{"truncated payload", page[:len(page)-3], CodeConnBroken},
		{"malformed payload", malformed, CodeConnBroken},
	}
	for _, tc := range cases {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer srv.Close()
			var req Request
			if err := ReadFrame(srv, &req); err != nil {
				t.Errorf("%s: server read: %v", tc.name, err)
				return
			}
			if len(tc.reply) > 0 {
				srv.Write(tc.reply)
			}
		}()
		c := &Client{conn: cli, r: bufio.NewReader(cli), w: bufio.NewWriter(cli)}
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		_, err := c.roundTrip(&Request{Verb: VerbFetch, Stmt: 1})
		<-done
		if got := ErrorCode(err); got != tc.code {
			t.Errorf("%s: %v classified %s, want %s", tc.name, err, got, tc.code)
		}
		if !c.Broken() {
			t.Errorf("%s: client not marked broken", tc.name)
		}
	}
	// The unedited page decodes.
	var resp Response
	if err := ReadFrame(bytes.NewReader(page), &resp); err != nil || resp.Rows[0][0].Int() != 7 {
		t.Fatalf("unedited page: %v, %+v", err, resp)
	}
}

// FuzzReadFrame: ReadFrame never panics, and any payload it accepts
// re-encodes to bytes that decode to the same message. The encoding is
// canonical, so equal messages have equal bytes; comparing bytes also
// compares NaN cells bit for bit.
func FuzzReadFrame(f *testing.F) {
	check := true
	seeds := []any{
		&Request{Verb: VerbHello, Options: &SessionOptions{Strategy: "linear", MaxStates: 9, Check: &check}},
		&Request{Verb: VerbExecute, SQL: "SELECT 1", Stmt: 3, DeadlineMS: 250,
			Binds: []BindValue{Named("a", datum.NewInt(-5)), Positional(datum.NewFloat(math.NaN())), Positional(datum.NewString("s"))}},
		&Response{OK: true, Stmt: 2, Params: []string{"A", "B"}, RowCount: 2,
			Rows: [][]WireDatum{EncodeRow([]datum.Datum{datum.NewInt(1), datum.Null}), EncodeRow([]datum.Datum{datum.NewBool(true), datum.NewFloat(0.5)}), {}}, Done: true},
		&Response{Error: "boom", Code: CodeOverloaded},
		&Response{OK: true, Metrics: map[string]int64{"a": 1, "b": -2}, Session: &SessionStats{ID: 4, Fetches: 8}},
	}
	for i, msg := range seeds {
		b := encodeFrame(f, msg)
		f.Add(i%2 == 0, b[4:])
	}
	f.Fuzz(func(t *testing.T, isRequest bool, payload []byte) {
		if len(payload) > 1<<16 {
			return
		}
		fresh := func() any {
			if isRequest {
				return &Request{}
			}
			return &Response{}
		}
		m1 := fresh()
		if err := ReadFrame(bytes.NewReader(frame(payload)), m1); err != nil {
			if !errors.Is(err, ErrBrokenFrame) {
				t.Fatalf("rejection not a broken frame: %v", err)
			}
			return
		}
		b1 := encodeFrame(t, m1)
		m2 := fresh()
		if err := ReadFrame(bytes.NewReader(b1), m2); err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if b2 := encodeFrame(t, m2); !bytes.Equal(b1, b2) {
			t.Fatalf("message changed across a round trip:\n%+v\n%+v", m1, m2)
		}
	})
}
