package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"histanon/internal/geo"
)

// parseFrame decodes one complete frame as handleBatch decodes an inner
// frame of a batch: SplitFrame, then the payload parser of its type.
func parseFrame(frame []byte) (any, error) {
	typ, flags, payload, _, err := SplitFrame(frame)
	if err != nil {
		return nil, err
	}
	return parsePayload(typ, flags, payload)
}

// parsePayload dispatches a split frame to its type's payload parser.
func parsePayload(typ FrameType, flags byte, p []byte) (any, error) {
	switch typ {
	case FrameLocation:
		return ParseLocationPayload(flags, p)
	case FrameServiceCall:
		return ParseServiceCallPayload(flags, p)
	case FrameDecision:
		return ParseDecisionPayload(flags, p)
	}
	return nil, fmt.Errorf("unexpected %s frame", typ)
}

// encodeFrame is the inverse of parseFrame.
func encodeFrame(v any) ([]byte, error) {
	switch v := v.(type) {
	case LocationUpdate:
		return AppendLocation(nil, v), nil
	case ServiceCall:
		return AppendServiceCall(nil, v)
	case DecisionFrame:
		return AppendDecision(nil, v), nil
	}
	return nil, fmt.Errorf("no encoder for %T", v)
}

// checkRoundTrip encodes v, parses the frame back, and requires the
// parse to equal v and to re-encode to the same bytes, so a lost −0
// sign bit fails twice over.
func checkRoundTrip(t *testing.T, v any) {
	t.Helper()
	frame, err := encodeFrame(v)
	if err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	got, err := parseFrame(frame)
	if err != nil {
		t.Fatalf("parse %+v: %v", v, err)
	}
	if !sameValue(got, v) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, v)
	}
	again, err := encodeFrame(got)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", got, err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", again, frame)
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
		checkRoundTrip(t, l)
	}
	// Non-finite coordinates encode (IEEE path) but the parser rejects
	// them, mirroring Request.Validate.
	for _, bad := range []LocationUpdate{{X: math.NaN()}, {Y: math.Inf(1)}} {
		if _, err := parseFrame(AppendLocation(nil, bad)); err == nil {
			t.Fatalf("non-finite location %+v parsed", bad)
		}
	}
}

func TestServiceCallRoundTrip(t *testing.T) {
	cases := map[string]ServiceCall{
		"basic": {User: 7, X: 100.25, Y: -50.5, T: 1234, Service: "weather", Data: map[string]string{"q": "now"}},
		"empty data": {User: 0, X: 0, Y: 0, T: 0, Service: "s",
			Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		"irrational coords": {User: -3, X: math.Pi, Y: 2, T: -7, Service: "täxi"},
		"unicode strings": {User: 1 << 60, X: -1, Y: 1, T: 5, Service: "täxi service",
			Data: map[string]string{"a b": "c&d", "ключ": "значение", "~": "="}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, c) })
	}
	if _, err := AppendServiceCall(nil, ServiceCall{User: 1}); err == nil {
		t.Fatal("empty service encoded")
	}
	if _, err := AppendServiceCall(nil, ServiceCall{User: 1, Service: "s", Data: map[string]string{"": "v"}}); err == nil {
		t.Fatal("empty data key encoded")
	}
}

// TestDecisionRoundTrip covers every decision bit and string field.
func TestDecisionRoundTrip(t *testing.T) {
	cases := map[string]DecisionFrame{
		"empty": {},
		"basic": {Forwarded: true, Generalized: true, HKAnonymity: true, Unlinked: true,
			MatchedLBQID: "home", TraceID: "0123456789abcdef0123456789abcdef", Pseudonym: "p-9",
			HasContext: true, Context: box(1, 2, 3, 4, 5, 6)},
		"suppressed": {Suppressed: true, AtRisk: true, QIDExposed: true, DegradedReason: "outbox saturated"},
		"degraded":   {Degraded: true, HasContext: true, Context: box(math.Pi, 0, 4, 1, -1, 1)},
		"unicode strings": {Forwarded: true, MatchedLBQID: "täxi route", Pseudonym: "αβ γ=δ&ε",
			HasContext: true, Context: box(-1, -1, 1, 1, 0, 0)},
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) { checkRoundTrip(t, d) })
	}
}

// TestDecisionContextRoundTrip puts in the forwarded context box a
// lattice box for the fixed-point path and the extreme values a float64
// or int64 can take: irrational, ±1e300/MaxFloat64, denormal and −0
// coordinates, MinInt64..MaxInt64 times.
func TestDecisionContextRoundTrip(t *testing.T) {
	cases := map[string]geo.STBox{
		"basic":             box(100.25, -50.5, 200.75, 50.5, 1000, 2000),
		"irrational coords": box(math.Pi, math.E, 4, 3, math.MinInt64, math.MaxInt64),
		"huge coords":       box(-1e300, -math.MaxFloat64, 1e300, math.MaxFloat64, 0, 1),
		"denormal coords":   box(-5e-324, 0, 5e-324, 1e-300, 0, 1),
		"negative zero":     box(math.Copysign(0, -1), math.Copysign(0, -1), 0, 1, 0, 1),
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			checkRoundTrip(t, DecisionFrame{Forwarded: true, Pseudonym: "p", HasContext: true, Context: c})
		})
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
	good, err := AppendServiceCall(nil, ServiceCall{
		User: 7, X: 100.25, Y: -50.5, T: 1234, Service: "weather", Data: map[string]string{"q": "now"},
	})
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
		"length too big":  corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], 1<<28); return b }),
		"length over max": corrupt(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:9], MaxFrameBytes+1); return b }),
		"length lies short": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:9], binary.LittleEndian.Uint32(b[5:9])-1)
			return b
		}),
	}
	for name, frame := range cases {
		if _, err := parseFrame(frame); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}

	// Payload-level abuse, rebuilt by hand around the real header.
	frame := func(p []byte) []byte {
		f, lenAt := appendHeader(nil, FrameServiceCall, 0)
		f = append(f, p...)
		return patchLength(f, lenAt)
	}
	// call encodes user 1 at IEEE coordinates (x, y), time 0, the given
	// service and an empty traceparent, then tail (the data map).
	call := func(x, y float64, service string, tail []byte) []byte {
		p := appendVarint(nil, 1)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(x))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(y))
		p = appendVarint(p, 0)
		p = appendString(p, service)
		p = appendString(p, "")
		return append(p, tail...)
	}
	body := func(tail []byte) []byte { return call(0, 1, "s", tail) }
	payloadCases := map[string][]byte{
		"non-minimal varint": frame(body([]byte{0x80, 0x00})), // data count 0 in two bytes
		"varint too long":    frame(body([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})),
		"string over-read": frame(func() []byte {
			p := appendVarint(nil, 1)
			p = binary.LittleEndian.AppendUint64(p, 0)
			p = binary.LittleEndian.AppendUint64(p, 0)
			p = appendVarint(p, 0)
			p = appendUvarint(p, 1000) // service claims 1000 bytes
			return append(p, 's')
		}()),
		"data count lies": frame(body(appendUvarint(nil, 100))),
		"empty data key": frame(func() []byte {
			p := body(appendUvarint(nil, 1))
			p = appendString(p, "")
			return appendString(p, "v")
		}()),
		"unsorted data keys": frame(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "b")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}()),
		"duplicate data keys": frame(func() []byte {
			p := body(appendUvarint(nil, 2))
			p = appendString(p, "a")
			p = appendString(p, "1")
			p = appendString(p, "a")
			return appendString(p, "2")
		}()),
		"trailing payload": frame(body(append(appendUvarint(nil, 0), 0xde, 0xad))),
		"empty service":    frame(call(0, 1, "", appendUvarint(nil, 0))),
		"nan coordinate":   frame(call(math.NaN(), 1, "s", appendUvarint(nil, 0))),
	}
	if _, err := parseFrame(frame(body(appendUvarint(nil, 0)))); err != nil {
		t.Fatalf("hand-built well-formed call rejected: %v", err)
	}
	for name, f := range payloadCases {
		if _, err := parseFrame(f); err == nil {
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
	if _, err := parseFrame(f); err == nil {
		t.Error("out-of-range fixed-point coordinate parsed")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var frames []byte
	var want []any
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var v any
		switch i % 3 {
		case 0:
			v = LocationUpdate{User: int64(i), X: float64(rng.Intn(1000)) / 4, Y: -float64(i), T: int64(i * 10)}
		case 1:
			v = ServiceCall{User: int64(i), X: rng.Float64(), Y: rng.Float64(), T: int64(i), Service: "svc", Data: map[string]string{"i": "x"}}
		case 2:
			v = DecisionFrame{Forwarded: i%6 == 2, Pseudonym: "p", TraceID: "t",
				HasContext: true, Context: box(rng.Float64(), 0, 2, 1, int64(i), int64(i+60))}
		}
		frame, err := encodeFrame(v)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame...)
		want = append(want, v)
	}
	batch, err := AppendBatch(nil, len(want), frames)
	if err != nil {
		t.Fatal(err)
	}
	checkBatchEquals(t, batch, want)

	// Nested batches are rejected.
	nested, err := AppendBatch(nil, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBatchDecoder(nested)
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

// TestBinaryRandomizedRoundTrip round-trips seeded random decision
// contexts and service-call data maps through the binary codec: the
// parse must equal the input, and re-encoding it must reproduce the
// frame byte for byte.
func TestBinaryRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		minx, miny := randCoord(rng), randCoord(rng)
		start := rng.Int63n(1 << 40)
		d := DecisionFrame{
			Forwarded:    true,
			Generalized:  rng.Intn(2) == 0,
			HKAnonymity:  rng.Intn(2) == 0,
			MatchedLBQID: randString(rng),
			TraceID:      randString(rng),
			Pseudonym:    randString(rng),
			HasContext:   true,
			Context: box(minx, miny, minx+math.Abs(randCoord(rng)), miny+math.Abs(randCoord(rng)),
				start, start+rng.Int63n(10000)),
		}
		c := ServiceCall{
			User:        rng.Int63() - rng.Int63(),
			X:           randCoord(rng),
			Y:           randCoord(rng),
			T:           start,
			Service:     randString(rng),
			Traceparent: randString(rng),
		}
		if rng.Intn(2) == 0 {
			c.Data = map[string]string{randString(rng): randString(rng), "z" + randString(rng): ""}
		}
		checkRoundTrip(t, d)
		checkRoundTrip(t, c)
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
