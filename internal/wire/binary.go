package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"histanon/internal/geo"
)

// Binary codec of the device→TS batch channel (POST /v1/batch):
// location and service-call frames in, decision frames out, each set
// wrapped in one batch frame. One fixed little-endian header per frame,
// varint ids and timestamps, fixed-point coordinates with an IEEE
// escape hatch so every finite float64 round-trips exactly.
// internal/check differential-tests the channel against the JSON API
// through the real HTTP handler over the seeded workloads.
//
// Frame layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       2     magic 0x48 0x57 ("HW")
//	2       1     version (1)
//	3       1     frame type (FrameType)
//	4       1     flags (bit 0: FlagFixedCoords)
//	5       4     payload length (uint32)
//	9       n     payload
//
// Payload fields are varints (unsigned LEB128, minimal encoding
// enforced; signed values zigzag), length-prefixed strings, and
// coordinates. When FlagFixedCoords is set, every coordinate of the
// frame is a zigzag varint of the value scaled by 2^20 (sub-millimeter
// fixed point); the encoder sets the flag exactly when all coordinates
// of the frame are representable that way without rounding (scaling by
// a power of two is exact), and falls back to 8-byte IEEE-754 bits
// otherwise — so encoding is canonical and parse∘encode is the
// identity on every value, including negative zero, which only the
// IEEE path preserves.
//
// Data maps encode as a varint pair count followed by key/value strings
// with keys in strictly increasing byte order; the parser rejects
// unsorted, duplicate and empty keys, so every map has exactly one
// encoding and an empty map decodes to nil.

// Magic are the two bytes opening every binary frame.
var Magic = [2]byte{0x48, 0x57}

// BinaryVersion is the framing version this package encodes and the
// only one it accepts.
const BinaryVersion = 1

// FrameType discriminates the payload of a binary frame.
type FrameType byte

// The binary frame types. Numbers 1 and 2 are unassigned: a frame of
// either type is an unknown type to every decoder.
const (
	// FrameLocation carries a LocationUpdate — a device position sample
	// on the client→TS ingest channel.
	FrameLocation FrameType = 3
	// FrameServiceCall carries a ServiceCall — a device service request
	// on the client→TS ingest channel.
	FrameServiceCall FrameType = 4
	// FrameDecision carries a DecisionFrame — the TS's audit-relevant
	// verdict on one ServiceCall, returned on the batch channel.
	FrameDecision FrameType = 5
	// FrameBatch wraps a varint frame count and that many complete
	// frames; batches do not nest.
	FrameBatch FrameType = 6
)

// String names the frame type for metrics labels and errors.
func (t FrameType) String() string {
	switch t {
	case FrameLocation:
		return "location"
	case FrameServiceCall:
		return "service_call"
	case FrameDecision:
		return "decision"
	case FrameBatch:
		return "batch"
	default:
		return fmt.Sprintf("type_%d", byte(t))
	}
}

// FlagFixedCoords marks a frame whose coordinates are all fixed-point
// varints instead of raw IEEE-754 bits.
const FlagFixedCoords byte = 0x01

// headerSize is the fixed frame header length.
const headerSize = 9

// MaxFrameBytes bounds a single frame's payload; the parser rejects
// larger declared lengths before touching the body, so a hostile
// header cannot force a large read or allocation.
const MaxFrameBytes = 1 << 20

// coordScale is the fixed-point coordinate scale: 2^20 units per meter
// (sub-micrometer resolution), chosen as a power of two so scaling is
// exact for every representable value.
const coordScale = 1 << 20

// coordMaxAbs bounds fixed-point magnitudes to the float64 exact-integer
// range, so int64→float64 on the decode side cannot round.
const coordMaxAbs = 1 << 53

// LocationUpdate is one device position sample on the client→TS ingest
// channel: the binary protocol's equivalent of POST /v1/location.
type LocationUpdate struct {
	User int64
	X, Y float64
	T    int64
}

// Point returns the update's spatio-temporal point.
func (l LocationUpdate) Point() geo.STPoint {
	return geo.STPoint{P: geo.Point{X: l.X, Y: l.Y}, T: l.T}
}

// ServiceCall is one device service request on the client→TS ingest
// channel: the binary protocol's equivalent of POST /v1/request.
// Traceparent optionally carries the W3C trace context the HTTP path
// carries as a header; empty means untraced.
type ServiceCall struct {
	User        int64
	X, Y        float64
	T           int64
	Service     string
	Traceparent string
	Data        map[string]string
}

// DecisionFrame is the audit-relevant subset of a ts.Decision on the
// wire: what the TS did with one ServiceCall. It mirrors the JSON
// DecisionResponse of internal/httpapi field for field.
type DecisionFrame struct {
	Forwarded      bool
	Generalized    bool
	HKAnonymity    bool
	Unlinked       bool
	AtRisk         bool
	Suppressed     bool
	Degraded       bool
	QIDExposed     bool
	MatchedLBQID   string
	DegradedReason string
	TraceID        string
	Pseudonym      string
	// HasContext reports whether Context carries the forwarded
	// generalized ⟨Area, TimeInterval⟩.
	HasContext bool
	Context    geo.STBox
}

// Decision bit positions (varint bitmask, low to high).
const (
	decForwarded = 1 << iota
	decGeneralized
	decHKAnonymity
	decUnlinked
	decAtRisk
	decSuppressed
	decDegraded
	decQIDExposed
	decHasContext
)

// fixedCoord reports whether v is exactly representable in fixed point
// and, if so, its scaled integer value. Negative zero is excluded (the
// integer 0 decodes to +0), as are NaN, infinities and magnitudes whose
// scaled value leaves the float64 exact-integer range.
func fixedCoord(v float64) (int64, bool) {
	if v == 0 {
		return 0, !math.Signbit(v)
	}
	f := v * coordScale
	if math.IsInf(f, 0) || f != math.Trunc(f) || math.Abs(f) > coordMaxAbs {
		return 0, false
	}
	return int64(f), true
}

// fixedCoords reports whether every value is fixed-point representable.
func fixedCoords(vs ...float64) bool {
	for _, v := range vs {
		if _, ok := fixedCoord(v); !ok {
			return false
		}
	}
	return true
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendHeader writes a frame header with a length placeholder and
// returns the buffer plus the offset of the length field.
func appendHeader(dst []byte, typ FrameType, flags byte) ([]byte, int) {
	dst = append(dst, Magic[0], Magic[1], BinaryVersion, byte(typ), flags)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, lenAt
}

// patchLength fills the header's payload-length field once the payload
// is written.
func patchLength(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// appendUvarint appends v in minimal LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendVarint appends v zigzagged.
func appendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendCoord appends one coordinate under the frame's flag regime.
func appendCoord(dst []byte, v float64, fixed bool) []byte {
	if fixed {
		i, _ := fixedCoord(v)
		return appendVarint(dst, i)
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendData appends a data map canonically: varint count, then pairs
// in strictly increasing key order. The sort allocates only when the
// map is non-empty; hot-path frames (location updates) carry none.
func appendData(dst []byte, m map[string]string) []byte {
	dst = appendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, m[k])
	}
	return dst
}

// AppendLocation appends a position update as one binary frame. It
// never fails: any finite coordinates are encodable, and non-finite
// ones take the IEEE path and are rejected by the parser instead.
func AppendLocation(dst []byte, l LocationUpdate) []byte {
	var flags byte
	fixed := fixedCoords(l.X, l.Y)
	if fixed {
		flags = FlagFixedCoords
	}
	dst, lenAt := appendHeader(dst, FrameLocation, flags)
	dst = appendVarint(dst, l.User)
	dst = appendCoord(dst, l.X, fixed)
	dst = appendCoord(dst, l.Y, fixed)
	dst = appendVarint(dst, l.T)
	return patchLength(dst, lenAt)
}

// AppendServiceCall appends a device service request as one binary
// frame. The service name must be non-empty and the data map must pass
// ValidateData, as the parser requires.
func AppendServiceCall(dst []byte, c ServiceCall) ([]byte, error) {
	if c.Service == "" {
		return dst, fmt.Errorf("wire: empty service")
	}
	if err := ValidateData(c.Data); err != nil {
		return dst, err
	}
	var flags byte
	fixed := fixedCoords(c.X, c.Y)
	if fixed {
		flags = FlagFixedCoords
	}
	dst, lenAt := appendHeader(dst, FrameServiceCall, flags)
	dst = appendVarint(dst, c.User)
	dst = appendCoord(dst, c.X, fixed)
	dst = appendCoord(dst, c.Y, fixed)
	dst = appendVarint(dst, c.T)
	dst = appendString(dst, c.Service)
	dst = appendString(dst, c.Traceparent)
	dst = appendData(dst, c.Data)
	return patchLength(dst, lenAt), nil
}

// AppendDecision appends a decision frame.
func AppendDecision(dst []byte, d DecisionFrame) []byte {
	bits := uint64(0)
	set := func(on bool, bit uint64) {
		if on {
			bits |= bit
		}
	}
	set(d.Forwarded, decForwarded)
	set(d.Generalized, decGeneralized)
	set(d.HKAnonymity, decHKAnonymity)
	set(d.Unlinked, decUnlinked)
	set(d.AtRisk, decAtRisk)
	set(d.Suppressed, decSuppressed)
	set(d.Degraded, decDegraded)
	set(d.QIDExposed, decQIDExposed)
	set(d.HasContext, decHasContext)
	var flags byte
	fixed := true
	if d.HasContext {
		a := d.Context.Area
		fixed = fixedCoords(a.MinX, a.MinY, a.MaxX, a.MaxY)
	}
	if fixed {
		flags = FlagFixedCoords
	}
	dst, lenAt := appendHeader(dst, FrameDecision, flags)
	dst = appendUvarint(dst, bits)
	dst = appendString(dst, d.MatchedLBQID)
	dst = appendString(dst, d.DegradedReason)
	dst = appendString(dst, d.TraceID)
	dst = appendString(dst, d.Pseudonym)
	if d.HasContext {
		a := d.Context.Area
		dst = appendCoord(dst, a.MinX, fixed)
		dst = appendCoord(dst, a.MinY, fixed)
		dst = appendCoord(dst, a.MaxX, fixed)
		dst = appendCoord(dst, a.MaxY, fixed)
		dst = appendVarint(dst, d.Context.Time.Start)
		dst = appendVarint(dst, d.Context.Time.End)
	}
	return patchLength(dst, lenAt)
}

// frameReader walks a frame payload with explicit bounds: every read
// checks the remaining length, so a hostile frame can truncate or lie
// about lengths without ever inducing a panic or an over-read past the
// declared payload.
type frameReader struct {
	p   []byte
	off int
}

func (r *frameReader) remaining() int { return len(r.p) - r.off }

// uvarint reads a minimal LEB128 varint.
func (r *frameReader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	start := r.off
	for {
		if r.off >= len(r.p) {
			return 0, fmt.Errorf("wire: truncated varint")
		}
		b := r.p[r.off]
		r.off++
		if shift == 63 && b > 1 {
			return 0, fmt.Errorf("wire: varint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			// Minimal encoding: a multi-byte varint may not end in a
			// zero continuation byte (it encodes nothing).
			if b == 0 && r.off-start > 1 {
				return 0, fmt.Errorf("wire: non-minimal varint")
			}
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("wire: varint too long")
		}
	}
}

// varint reads a zigzagged signed varint.
func (r *frameReader) varint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// bytes reads a length-prefixed byte string without copying.
func (r *frameReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("wire: string length %d exceeds remaining payload %d", n, r.remaining())
	}
	b := r.p[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// coord reads one coordinate under the frame's flag regime.
func (r *frameReader) coord(fixed bool) (float64, error) {
	if fixed {
		i, err := r.varint()
		if err != nil {
			return 0, err
		}
		if i > coordMaxAbs || i < -coordMaxAbs {
			return 0, fmt.Errorf("wire: fixed-point coordinate %d out of range", i)
		}
		return float64(i) / coordScale, nil
	}
	if r.remaining() < 8 {
		return 0, fmt.Errorf("wire: truncated coordinate")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.p[r.off:]))
	r.off += 8
	return v, nil
}

// done errors unless the payload was consumed exactly.
func (r *frameReader) done() error {
	if r.off != len(r.p) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.p)-r.off)
	}
	return nil
}

// SplitFrame validates one frame header at the front of b and returns
// its type, flags and payload, plus the remainder of b after the
// frame. It never reads past the declared payload.
func SplitFrame(b []byte) (typ FrameType, flags byte, payload, rest []byte, err error) {
	if len(b) < headerSize {
		return 0, 0, nil, nil, fmt.Errorf("wire: frame header needs %d bytes, have %d", headerSize, len(b))
	}
	if b[0] != Magic[0] || b[1] != Magic[1] {
		return 0, 0, nil, nil, fmt.Errorf("wire: bad magic %#x %#x", b[0], b[1])
	}
	if b[2] != BinaryVersion {
		return 0, 0, nil, nil, fmt.Errorf("wire: unsupported binary version %d", b[2])
	}
	typ = FrameType(b[3])
	flags = b[4]
	if flags&^FlagFixedCoords != 0 {
		return 0, 0, nil, nil, fmt.Errorf("wire: unknown flag bits %#x", flags&^FlagFixedCoords)
	}
	n := binary.LittleEndian.Uint32(b[5:9])
	if n > MaxFrameBytes {
		return 0, 0, nil, nil, fmt.Errorf("wire: payload length %d exceeds limit %d", n, MaxFrameBytes)
	}
	if uint64(n) > uint64(len(b)-headerSize) {
		return 0, 0, nil, nil, fmt.Errorf("wire: payload length %d exceeds buffer %d", n, len(b)-headerSize)
	}
	return typ, flags, b[headerSize : headerSize+int(n)], b[headerSize+int(n):], nil
}

// parseData decodes a canonical data map into a fresh map. Empty maps
// decode to nil.
func parseData(fr *frameReader) (map[string]string, error) {
	n, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each pair needs at least two length bytes; reject counts the
	// remaining payload cannot possibly hold before allocating.
	if n > uint64(fr.remaining())/2 {
		return nil, fmt.Errorf("wire: data pair count %d exceeds payload", n)
	}
	m := make(map[string]string, n)
	var prev []byte
	for i := uint64(0); i < n; i++ {
		k, err := fr.bytes()
		if err != nil {
			return nil, err
		}
		if len(k) == 0 {
			return nil, fmt.Errorf("wire: empty data key")
		}
		if prev != nil && string(prev) >= string(k) {
			return nil, fmt.Errorf("wire: data keys not in strictly increasing order")
		}
		prev = k
		v, err := fr.bytes()
		if err != nil {
			return nil, err
		}
		m[string(k)] = string(v)
	}
	return m, nil
}

// ParseLocationPayload decodes a FrameLocation payload. The update is
// returned by value and carries no references into the payload, so the
// parse allocates nothing.
func ParseLocationPayload(flags byte, p []byte) (LocationUpdate, error) {
	fixed := flags&FlagFixedCoords != 0
	fr := frameReader{p: p}
	var l LocationUpdate
	var err error
	if l.User, err = fr.varint(); err != nil {
		return l, err
	}
	if l.X, err = fr.coord(fixed); err != nil {
		return l, err
	}
	if l.Y, err = fr.coord(fixed); err != nil {
		return l, err
	}
	if l.T, err = fr.varint(); err != nil {
		return l, err
	}
	if err := fr.done(); err != nil {
		return l, err
	}
	if math.IsNaN(l.X) || math.IsInf(l.X, 0) || math.IsNaN(l.Y) || math.IsInf(l.Y, 0) {
		return l, fmt.Errorf("wire: non-finite location coordinate")
	}
	return l, nil
}

// ParseServiceCallPayload decodes a FrameServiceCall payload into a
// fresh ServiceCall with copied strings — the ingest path hands the
// result to the TS pipeline, which may retain it beyond the buffer's
// lifetime, so aliasing is not an option here.
func ParseServiceCallPayload(flags byte, p []byte) (ServiceCall, error) {
	fixed := flags&FlagFixedCoords != 0
	fr := frameReader{p: p}
	var c ServiceCall
	var err error
	if c.User, err = fr.varint(); err != nil {
		return c, err
	}
	if c.X, err = fr.coord(fixed); err != nil {
		return c, err
	}
	if c.Y, err = fr.coord(fixed); err != nil {
		return c, err
	}
	if c.T, err = fr.varint(); err != nil {
		return c, err
	}
	svc, err := fr.bytes()
	if err != nil {
		return c, err
	}
	if len(svc) == 0 {
		return c, fmt.Errorf("wire: empty service")
	}
	tp, err := fr.bytes()
	if err != nil {
		return c, err
	}
	c.Data, err = parseData(&fr)
	if err != nil {
		return c, err
	}
	if err := fr.done(); err != nil {
		return c, err
	}
	if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
		return c, fmt.Errorf("wire: non-finite service-call coordinate")
	}
	c.Service = string(svc)
	c.Traceparent = string(tp)
	return c, nil
}

// ParseDecisionPayload decodes a FrameDecision payload.
func ParseDecisionPayload(flags byte, p []byte) (DecisionFrame, error) {
	fixed := flags&FlagFixedCoords != 0
	fr := frameReader{p: p}
	var d DecisionFrame
	bits, err := fr.uvarint()
	if err != nil {
		return d, err
	}
	if bits >= decHasContext<<1 {
		return d, fmt.Errorf("wire: unknown decision bits %#x", bits)
	}
	d.Forwarded = bits&decForwarded != 0
	d.Generalized = bits&decGeneralized != 0
	d.HKAnonymity = bits&decHKAnonymity != 0
	d.Unlinked = bits&decUnlinked != 0
	d.AtRisk = bits&decAtRisk != 0
	d.Suppressed = bits&decSuppressed != 0
	d.Degraded = bits&decDegraded != 0
	d.QIDExposed = bits&decQIDExposed != 0
	d.HasContext = bits&decHasContext != 0
	read := func() (string, error) {
		b, err := fr.bytes()
		return string(b), err
	}
	if d.MatchedLBQID, err = read(); err != nil {
		return d, err
	}
	if d.DegradedReason, err = read(); err != nil {
		return d, err
	}
	if d.TraceID, err = read(); err != nil {
		return d, err
	}
	if d.Pseudonym, err = read(); err != nil {
		return d, err
	}
	if d.HasContext {
		var coords [4]float64
		for i := range coords {
			if coords[i], err = fr.coord(fixed); err != nil {
				return d, err
			}
		}
		start, err := fr.varint()
		if err != nil {
			return d, err
		}
		end, err := fr.varint()
		if err != nil {
			return d, err
		}
		d.Context = geo.STBox{
			Area: geo.Rect{MinX: coords[0], MinY: coords[1], MaxX: coords[2], MaxY: coords[3]},
			Time: geo.Interval{Start: start, End: end},
		}
	}
	if err := fr.done(); err != nil {
		return d, err
	}
	return d, nil
}
