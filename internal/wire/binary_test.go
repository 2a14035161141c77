package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"histanon/internal/geo"
)

func mkReq() *Request {
	return &Request{
		ID:        42,
		Pseudonym: "p-1337",
		Service:   "weather",
		Context: geo.STBox{
			Area: geo.Rect{MinX: 100.25, MinY: -50.5, MaxX: 200.75, MaxY: 50.5},
			Time: geo.Interval{Start: 1000, End: 2000},
		},
		Data: map[string]string{"q": "forecast", "units": "si"},
	}
}

func binaryRequestCases() map[string]*Request {
	return map[string]*Request{
		"basic": mkReq(),
		"empty data": {
			ID: -7, Pseudonym: "p", Service: "s",
			Context: geo.STBox{Area: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Time: geo.Interval{Start: -5, End: 5}},
		},
		"unicode strings": {
			ID: 1 << 60, Pseudonym: "αβ γ=δ&ε", Service: "täxi service",
			Context: geo.STBox{Area: geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, Time: geo.Interval{Start: 0, End: 0}},
			Data:    map[string]string{"a b": "c&d", "ключ": "значение", "~": "="},
		},
		"irrational coords": {
			ID: 0, Pseudonym: "p", Service: "s",
			Context: geo.STBox{
				Area: geo.Rect{MinX: math.Pi, MinY: math.E, MaxX: 4, MaxY: 3},
				Time: geo.Interval{Start: math.MinInt64, End: math.MaxInt64},
			},
		},
		"huge coords": {
			ID: math.MaxInt64, Pseudonym: "p", Service: "s",
			Context: geo.STBox{
				Area: geo.Rect{MinX: -1e300, MinY: -math.MaxFloat64, MaxX: 1e300, MaxY: math.MaxFloat64},
				Time: geo.Interval{Start: 0, End: 1},
			},
		},
		"denormal coords": {
			ID: 1, Pseudonym: "p", Service: "s",
			Context: geo.STBox{
				Area: geo.Rect{MinX: -5e-324, MinY: 0, MaxX: 5e-324, MaxY: 1e-300},
				Time: geo.Interval{Start: 0, End: 1},
			},
		},
		"negative zero": {
			ID: 1, Pseudonym: "p", Service: "s",
			Context: geo.STBox{
				Area: geo.Rect{MinX: math.Copysign(0, -1), MinY: math.Copysign(0, -1), MaxX: 0, MaxY: 1},
				Time: geo.Interval{Start: 0, End: 1},
			},
		},
	}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	for name, r := range binaryRequestCases() {
		t.Run(name, func(t *testing.T) {
			frame, err := EncodeBinaryRequest(r)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := ParseBinaryRequest(frame)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
			}
			// Canonical: re-encoding the parse reproduces the frame
			// byte for byte (this is what catches a lost −0 sign bit,
			// which DeepEqual's −0 == +0 cannot).
			again, err := EncodeBinaryRequest(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(frame, again) {
				t.Fatalf("re-encode differs:\n got %x\nwant %x", again, frame)
			}

			// Pooled zero-copy parse sees the same request.
			br := AcquireBinaryRequest()
			defer br.Release()
			if err := br.ParseFrame(frame); err != nil {
				t.Fatalf("pooled parse: %v", err)
			}
			if !reflect.DeepEqual(&br.Request, r) {
				t.Fatalf("pooled parse:\n got %+v\nwant %+v", &br.Request, r)
			}
		})
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{ID: 42, Service: "weather", Payload: map[string]string{"temp": "21", "sky": "clear"}},
		{ID: -1, Service: "s"},
		{ID: 0, Service: "täxi", Payload: map[string]string{"a&b": "c=d"}},
	}
	for _, r := range cases {
		frame, err := EncodeBinaryResponse(r)
		if err != nil {
			t.Fatalf("encode %v: %v", r, err)
		}
		got, err := ParseBinaryResponse(frame)
		if err != nil {
			t.Fatalf("parse %v: %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
		}
	}
	if _, err := EncodeBinaryResponse(&Response{ID: 1}); err == nil {
		t.Fatal("empty service encoded")
	}
}

func TestLocationRoundTrip(t *testing.T) {
	cases := []LocationUpdate{
		{User: 7, X: 100.25, Y: -50.5, T: 1234},
		{User: -1, X: 0, Y: 0, T: 0},
		{User: math.MaxInt64, X: math.Pi, Y: -math.E, T: math.MinInt64},
		{User: 0, X: 5e-324, Y: -1e300, T: 99},
	}
	for _, l := range cases {
		frame := AppendLocation(nil, l)
		got, err := ParseLocation(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", l, err)
		}
		if got != l {
			t.Fatalf("round trip: got %+v want %+v", got, l)
		}
	}
	// Non-finite coordinates encode (IEEE path) but the parser rejects
	// them, mirroring Request.Validate.
	for _, bad := range []LocationUpdate{{X: math.NaN()}, {Y: math.Inf(1)}} {
		if _, err := ParseLocation(AppendLocation(nil, bad)); err == nil {
			t.Fatalf("non-finite location %+v parsed", bad)
		}
	}
}

func TestServiceCallRoundTrip(t *testing.T) {
	cases := []ServiceCall{
		{User: 7, X: 100.25, Y: -50.5, T: 1234, Service: "weather", Data: map[string]string{"q": "now"}},
		{User: 0, X: 0, Y: 0, T: 0, Service: "s", Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		{User: -3, X: math.Pi, Y: 2, T: -7, Service: "täxi"},
	}
	for _, c := range cases {
		frame, err := AppendServiceCall(nil, c)
		if err != nil {
			t.Fatalf("encode %+v: %v", c, err)
		}
		got, err := ParseServiceCall(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
		}
	}
	if _, err := AppendServiceCall(nil, ServiceCall{User: 1}); err == nil {
		t.Fatal("empty service encoded")
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	cases := []DecisionFrame{
		{},
		{Forwarded: true, Generalized: true, HKAnonymity: true, Unlinked: true,
			MatchedLBQID: "home", TraceID: "0123456789abcdef0123456789abcdef", Pseudonym: "p-9",
			HasContext: true,
			Context: geo.STBox{
				Area: geo.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4},
				Time: geo.Interval{Start: 5, End: 6},
			}},
		{Suppressed: true, AtRisk: true, QIDExposed: true, DegradedReason: "outbox saturated"},
		{Degraded: true, HasContext: true,
			Context: geo.STBox{
				Area: geo.Rect{MinX: math.Pi, MinY: 0, MaxX: 4, MaxY: 1},
				Time: geo.Interval{Start: -1, End: 1},
			}},
	}
	for _, d := range cases {
		frame := AppendDecision(nil, d)
		got, err := ParseDecision(frame)
		if err != nil {
			t.Fatalf("parse %+v: %v", d, err)
		}
		if got != d {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
		}
	}
}

// TestFixedCoordSelection pins the flag policy: exact fixed-point
// representables use the compact path, everything else (including
// negative zero, whose sign only IEEE bits preserve) escapes to IEEE.
func TestFixedCoordSelection(t *testing.T) {
	fixed := []float64{0, 1, -1, 100.25, -0.5, 1 << 30, math.Ldexp(1, -20)}
	for _, v := range fixed {
		if _, ok := fixedCoord(v); !ok {
			t.Errorf("fixedCoord(%g) = not fixed, want fixed", v)
		}
	}
	ieee := []float64{math.Copysign(0, -1), math.Pi, 1e300, 5e-324, math.NaN(), math.Inf(1), math.Ldexp(1, -21)}
	for _, v := range ieee {
		if _, ok := fixedCoord(v); ok {
			t.Errorf("fixedCoord(%g) = fixed, want IEEE escape", v)
		}
	}

	frame := AppendLocation(nil, LocationUpdate{User: 1, X: 100.25, Y: -50.5, T: 1})
	if frame[4]&FlagFixedCoords == 0 {
		t.Error("lattice location did not take the fixed-point path")
	}
	frame = AppendLocation(nil, LocationUpdate{User: 1, X: math.Pi, Y: 0, T: 1})
	if frame[4]&FlagFixedCoords != 0 {
		t.Error("irrational location took the fixed-point path")
	}
}

// TestBinaryParseRejectsMalformed feeds the parser a gauntlet of
// header, varint, length and canonicality abuse; every case must fail
// cleanly.
func TestBinaryParseRejectsMalformed(t *testing.T) {
	good, err := EncodeBinaryRequest(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:5],
		"bad magic":       corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":     corrupt(func(b []byte) []byte { b[2] = 9; return b }),
		"unknown flags":   corrupt(func(b []byte) []byte { b[4] |= 0x80; return b }),
		"truncated body":  good[:len(good)-3],
		"trailing bytes":  append(append([]byte(nil), good...), 0xff),
		"length too big":  corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], 1<<28); return b }),
		"length over max": corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], MaxFrameBytes+1); return b }),
		"length lies short": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:9], binary.LittleEndian.Uint32(b[5:9])-1)
			return b
		}),
		"wrong type": corrupt(func(b []byte) []byte { b[3] = byte(FrameResponse); return b }),
	}
	for name, frame := range cases {
		if _, err := ParseBinaryRequest(frame); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// Payload-level abuse, rebuilt by hand around the real header.
	payload := func(build func() []byte) []byte {
		p := build()
		f, lenAt := appendHeader(nil, FrameRequest, 0)
		f = append(f, p...)
		return patchLength(f, lenAt)
	}
	body := func(tail []byte) []byte {
		// id, pseudonym "p", service "s", 4 IEEE coords, start, end
		p := appendVarint(nil, 1)
		p = appendString(p, "p")
		p = appendString(p, "s")
		for _, v := range []float64{0, 0, 1, 1} {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		p = appendVarint(p, 0)
		p = appendVarint(p, 1)
		return append(p, tail...)
	}
	payloadCases := map[string][]byte{
		"non-minimal varint": payload(func() []byte {
			return body([]byte{0x80, 0x00}) // data count 0 in two bytes
		}),
		"varint too long": payload(func() []byte {
			return body([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
		}),
		"string over-read": payload(func() []byte {
			p := appendVarint(nil, 1)
			p = appendUvarint(p, 1000) // pseudonym claims 1000 bytes
			return append(p, 'p')
		}),
		"data count lies": payload(func() []byte {
			return body(appendUvarint(nil, 100))
		}),
		"empty data key": payload(func() []byte {
			p := body(appendUvarint(nil, 1))
			p = appendString(p, "")
			return appendString(p, "v")
		}),
		"unsorted data keys": payload(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "b")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}),
		"duplicate data keys": payload(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "a")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}),
		"trailing payload": payload(func() []byte {
			return body(append(appendUvarint(nil, 0), 0xde, 0xad))
		}),
		"empty pseudonym": payload(func() []byte {
			p := appendVarint(nil, 1)
			p = appendString(p, "")
			p = appendString(p, "s")
			for _, v := range []float64{0, 0, 1, 1} {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
			}
			p = appendVarint(p, 0)
			p = appendVarint(p, 1)
			return appendUvarint(p, 0)
		}),
		"nan coordinate": payload(func() []byte {
			p := appendVarint(nil, 1)
			p = appendString(p, "p")
			p = appendString(p, "s")
			for _, v := range []float64{math.NaN(), 0, 1, 1} {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
			}
			p = appendVarint(p, 0)
			p = appendVarint(p, 1)
			return appendUvarint(p, 0)
		}),
	}
	for name, frame := range payloadCases {
		if _, err := ParseBinaryRequest(frame); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// Fixed-point coordinate out of the exact-integer range.
	f, lenAt := appendHeader(nil, FrameLocation, FlagFixedCoords)
	f = appendVarint(f, 1)
	f = appendVarint(f, coordMaxAbs+1)
	f = appendVarint(f, 0)
	f = appendVarint(f, 0)
	f = patchLength(f, lenAt)
	if _, err := ParseLocation(f); err == nil {
		t.Error("out-of-range fixed-point coordinate parsed")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var frames []byte
	var want []any
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		switch i % 4 {
		case 0:
			l := LocationUpdate{User: int64(i), X: float64(rng.Intn(1000)) / 4, Y: -float64(i), T: int64(i * 10)}
			frames = AppendLocation(frames, l)
			want = append(want, l)
		case 1:
			c := ServiceCall{User: int64(i), X: rng.Float64(), Y: rng.Float64(), T: int64(i), Service: "svc", Data: map[string]string{"i": "x"}}
			var err error
			frames, err = AppendServiceCall(frames, c)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		case 2:
			r := mkReq()
			r.ID = MsgID(i)
			var err error
			frames, err = AppendBinaryRequest(frames, r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		case 3:
			d := DecisionFrame{Forwarded: i%8 == 3, Pseudonym: "p", TraceID: "t"}
			frames = AppendDecision(frames, d)
			want = append(want, d)
		}
	}
	batch, err := AppendBatch(nil, len(want), frames)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBatchDecoder(batch)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count() != len(want) {
		t.Fatalf("count %d want %d", dec.Count(), len(want))
	}
	i := 0
	for dec.Next() {
		var got any
		var err error
		switch dec.Type() {
		case FrameLocation:
			got, err = ParseLocationPayload(dec.Flags(), dec.Payload())
		case FrameServiceCall:
			got, err = ParseServiceCallPayload(dec.Flags(), dec.Payload())
		case FrameRequest:
			r := new(Request)
			err = parseRequestPayload(dec.Flags(), dec.Payload(), requestDst{r: r, copy: true})
			got = r
		case FrameDecision:
			got, err = ParseDecisionPayload(dec.Flags(), dec.Payload())
		default:
			t.Fatalf("frame %d: unexpected type %s", i, dec.Type())
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want[i])
		}
		i++
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d frames, want %d", i, len(want))
	}

	// Nested batches are rejected.
	nested, err := AppendBatch(nil, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = NewBatchDecoder(nested)
	if err != nil {
		t.Fatal(err)
	}
	for dec.Next() {
	}
	if dec.Err() == nil {
		t.Fatal("nested batch decoded")
	}

	// A declared count the payload cannot hold is rejected up front.
	lie, err := AppendBatch(nil, 1000, frames[:20])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchDecoder(lie); err == nil {
		t.Fatal("lying batch count accepted")
	}
}

// TestBinaryParseZeroAlloc is the tentpole's allocation guard: the
// pooled zero-copy request parse must not allocate at all.
func TestBinaryParseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	frame, err := EncodeBinaryRequest(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	br := AcquireBinaryRequest()
	defer br.Release()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := br.ParseFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled binary parse allocates %.1f/op, want 0", allocs)
	}
}

// TestBatchDecodeAllocBudget guards the server-side batch ingest path:
// walking a batch and parsing every location payload allocates nothing.
func TestBatchDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	var frames []byte
	const n = 256
	for i := 0; i < n; i++ {
		frames = AppendLocation(frames, LocationUpdate{User: int64(i % 16), X: float64(i) / 4, Y: float64(i) / 2, T: int64(i)})
	}
	batch, err := AppendBatch(nil, n, frames)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dec, err := NewBatchDecoder(batch)
		if err != nil {
			t.Fatal(err)
		}
		for dec.Next() {
			if _, err := ParseLocationPayload(dec.Flags(), dec.Payload()); err != nil {
				t.Fatal(err)
			}
		}
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch location decode allocates %.1f/op, want 0", allocs)
	}
}

// TestBinaryRandomizedRoundTrip round-trips seeded random requests
// through the binary codec: the parse must equal the input, and
// re-encoding it must reproduce the frame byte for byte.
func TestBinaryRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r := &Request{
			ID:        MsgID(rng.Int63() - rng.Int63()),
			Pseudonym: Pseudonym(randString(rng)),
			Service:   randString(rng),
		}
		minx, miny := randCoord(rng), randCoord(rng)
		r.Context.Area = geo.Rect{MinX: minx, MinY: miny, MaxX: minx + math.Abs(randCoord(rng)), MaxY: miny + math.Abs(randCoord(rng))}
		start := rng.Int63n(1 << 40)
		r.Context.Time = geo.Interval{Start: start, End: start + rng.Int63n(10000)}
		if rng.Intn(2) == 0 {
			r.Data = map[string]string{randString(rng): randString(rng), "z" + randString(rng): ""}
		}
		frame, err := EncodeBinaryRequest(r)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := ParseBinaryRequest(frame)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("case %d: round trip:\n got %+v\nwant %+v", i, got, r)
		}
		again, err := EncodeBinaryRequest(got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("case %d: re-encode differs:\n got %x\nwant %x", i, again, frame)
		}
	}
}

func randString(rng *rand.Rand) string {
	alphabet := "abc =&%αβ"
	n := 1 + rng.Intn(8)
	out := make([]rune, n)
	for i := range out {
		out[i] = []rune(alphabet)[rng.Intn(len([]rune(alphabet)))]
	}
	return string(out)
}

func randCoord(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0: // lattice point, fixed-point representable
		return float64(rng.Intn(1<<20)) / 4
	case 1: // arbitrary double
		return (rng.Float64() - 0.5) * 2000
	default: // extreme magnitude
		return math.Ldexp(rng.Float64(), rng.Intn(600)-300)
	}
}
