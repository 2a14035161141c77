package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzParseBinaryFrame throws arbitrary bytes at the frame splitter and
// every payload parser: header abuse, varint abuse, truncation and flag
// games must never panic or read past the declared payload, and
// anything accepted must satisfy the codec closure — re-encoding an
// accepted message reproduces a frame that parses back to the same
// message.
func FuzzParseBinaryFrame(f *testing.F) {
	f.Add(AppendDecision(nil, DecisionFrame{Forwarded: true, Generalized: true, MatchedLBQID: "home", Pseudonym: "p-1337",
		HasContext: true, Context: box(math.Pi, -50.5, 200.75, 50.5, 1000, 2000)}))
	f.Add(AppendDecision(nil, DecisionFrame{Suppressed: true, DegradedReason: "outbox saturated",
		HasContext: true, Context: box(math.Copysign(0, -1), 0, 1, 1, math.MinInt64, math.MaxInt64)}))
	f.Add(AppendLocation(nil, LocationUpdate{User: 3, X: 1.25, Y: -2.5, T: 77}))
	call, _ := AppendServiceCall(nil, ServiceCall{User: 1, X: math.Pi, Y: 0, T: 5, Service: "svc", Traceparent: "00-x-y-01"})
	f.Add(call)
	f.Add(AppendDecision(nil, DecisionFrame{Forwarded: true, Pseudonym: "p", TraceID: "t"}))
	f.Add([]byte{Magic[0], Magic[1], BinaryVersion, byte(FrameLocation), 0xff, 0, 0, 0, 0})
	f.Add([]byte{Magic[0], Magic[1], BinaryVersion, byte(FrameDecision), 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, flags, payload, _, err := SplitFrame(data)
		if err != nil {
			return
		}
		if typ == FrameBatch {
			dec, err := NewBatchDecoder(data)
			if err != nil {
				return
			}
			for dec.Next() {
			}
			_ = dec.Err()
			return
		}
		v, err := parsePayload(typ, flags, payload)
		if err != nil {
			return
		}
		frame, err := encodeFrame(v)
		if err != nil {
			t.Fatalf("accepted %s does not re-encode: %+v: %v", typ, v, err)
		}
		again, err := parseFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded %s does not parse: %v", typ, err)
		}
		if !sameValue(again, v) {
			t.Fatalf("%s closure violated:\n got %#v\nwant %#v", typ, again, v)
		}
	})
}

// FuzzBatchRoundTrip drives batching from both directions. The fuzz
// input is first read as a value script building a batch of location
// updates, service calls and decisions — decode(encode(batch)) must
// reproduce the batch exactly. The raw input is then also decoded
// directly as a batch, so mutated batch framing exercises the
// decoder's bounds checks, and every frame it accepts must re-encode
// to a batch that decodes to the same values.
func FuzzBatchRoundTrip(f *testing.F) {
	var frames []byte
	frames = AppendLocation(frames, LocationUpdate{User: 1, X: 2.25, Y: -3, T: 4})
	frames = AppendDecision(frames, DecisionFrame{Forwarded: true, Pseudonym: "p-1337",
		HasContext: true, Context: box(100.25, -50.5, 200.75, 50.5, 1000, 2000)})
	seed, _ := AppendBatch(nil, 2, frames)
	f.Add(seed)
	f.Add([]byte("HW\x01\x06\x00\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0x80}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: build a batch from the input's values.
		vals := valueReader{p: data}
		var built []byte
		var want []any
		for len(want) < 64 {
			kind, ok := vals.byte()
			if !ok {
				break
			}
			switch kind % 3 {
			case 0:
				l := LocationUpdate{User: vals.int64(), X: vals.coord(), Y: vals.coord(), T: vals.int64()}
				if math.IsNaN(l.X) || math.IsInf(l.X, 0) || math.IsNaN(l.Y) || math.IsInf(l.Y, 0) {
					continue
				}
				built = AppendLocation(built, l)
				want = append(want, l)
			case 1:
				c := ServiceCall{
					User: vals.int64(), X: vals.coord(), Y: vals.coord(), T: vals.int64(),
					Service: "s" + vals.str(), Traceparent: vals.str(),
				}
				if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
					continue
				}
				var err error
				if built, err = AppendServiceCall(built, c); err != nil {
					t.Fatalf("encode %+v: %v", c, err)
				}
				want = append(want, c)
			case 2:
				bits, _ := vals.byte()
				d := DecisionFrame{
					Forwarded: bits&1 != 0, Generalized: bits&2 != 0, HKAnonymity: bits&4 != 0, Unlinked: bits&8 != 0,
					AtRisk: bits&16 != 0, Suppressed: bits&32 != 0, Degraded: bits&64 != 0, QIDExposed: bits&128 != 0,
					MatchedLBQID: vals.str(), DegradedReason: vals.str(), TraceID: vals.str(), Pseudonym: vals.str(),
				}
				if d.Forwarded {
					d.HasContext = true
					d.Context = box(vals.coord(), vals.coord(), vals.coord(), vals.coord(), vals.int64(), vals.int64())
				}
				built = AppendDecision(built, d)
				want = append(want, d)
			}
		}
		if len(want) > 0 {
			batch, err := AppendBatch(nil, len(want), built)
			if err != nil {
				t.Fatalf("encode batch: %v", err)
			}
			checkBatchEquals(t, batch, want)
		}

		// Direction 2: the raw input as a batch. Whatever decodes must
		// re-encode to a batch that decodes identically.
		dec, err := NewBatchDecoder(data)
		if err != nil {
			return
		}
		var rebuilt []byte
		var got []any
		for dec.Next() {
			v, err := parsePayload(dec.Type(), dec.Flags(), dec.Payload())
			if err != nil {
				return
			}
			frame, err := encodeFrame(v)
			if err != nil {
				t.Fatalf("accepted %s does not re-encode: %v", dec.Type(), err)
			}
			rebuilt = append(rebuilt, frame...)
			got = append(got, v)
		}
		if dec.Err() != nil || len(got) == 0 {
			return
		}
		batch, err := AppendBatch(nil, len(got), rebuilt)
		if err != nil {
			t.Fatalf("re-encode batch: %v", err)
		}
		checkBatchEquals(t, batch, got)
	})
}

// checkBatchEquals decodes batch and asserts it carries exactly want.
func checkBatchEquals(t *testing.T, batch []byte, want []any) {
	t.Helper()
	dec, err := NewBatchDecoder(batch)
	if err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	i := 0
	for dec.Next() {
		if i >= len(want) {
			t.Fatalf("batch yields more than %d frames", len(want))
		}
		got, err := parsePayload(dec.Type(), dec.Flags(), dec.Payload())
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameValue(got, want[i]) {
			t.Fatalf("frame %d:\n got %#v\nwant %#v", i, got, want[i])
		}
		i++
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("decoded %d frames, want %d", i, len(want))
	}
}

// sameValue reports whether a and b are the same value. It compares the
// printed forms, in which every float64 prints distinctly: unlike
// reflect.DeepEqual it tells −0 from +0 and holds NaN equal to NaN,
// which a decision context may carry.
func sameValue(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// valueReader consumes fuzz bytes as typed values, zero-padding at the
// end so every read succeeds deterministically.
type valueReader struct {
	p   []byte
	off int
}

func (v *valueReader) byte() (byte, bool) {
	if v.off >= len(v.p) {
		return 0, false
	}
	b := v.p[v.off]
	v.off++
	return b, true
}

func (v *valueReader) chunk(n int) []byte {
	out := make([]byte, n)
	c := copy(out, v.p[min(v.off, len(v.p)):])
	v.off += c
	return out
}

func (v *valueReader) int64() int64 {
	return int64(binary.LittleEndian.Uint64(v.chunk(8)))
}

func (v *valueReader) uint16() uint16 {
	return binary.LittleEndian.Uint16(v.chunk(2))
}

// coord yields either an arbitrary float64 or a fixed-point lattice
// value, so both coordinate paths get exercised.
func (v *valueReader) coord() float64 {
	b, _ := v.byte()
	if b%2 == 0 {
		return float64(int32(binary.LittleEndian.Uint32(v.chunk(4)))) / 4
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(v.chunk(8)))
}

func (v *valueReader) str() string {
	b, _ := v.byte()
	return string(v.chunk(int(b % 8)))
}
