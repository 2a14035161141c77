package wire

import (
	"fmt"
)

// Batch framing: one FrameBatch frame wrapping a varint frame count and
// that many complete inner frames (each with its own header). The
// decoder is a value type that walks the inner frames in place without
// allocating, so server-side batch decode stays on the zero-alloc
// ingest path.

// MaxBatchFrames bounds the declared frame count of one batch; combined
// with MaxFrameBytes it keeps a hostile header from promising work the
// payload cannot hold.
const MaxBatchFrames = 1 << 16

// AppendBatch appends a batch frame wrapping the given complete frames.
// The frames are trusted to be well-formed (they come from this
// package's encoders); the decoder re-validates everything anyway.
func AppendBatch(dst []byte, count int, frames []byte) ([]byte, error) {
	if count < 0 || count > MaxBatchFrames {
		return dst, fmt.Errorf("wire: batch frame count %d out of range", count)
	}
	if len(frames) > MaxFrameBytes-10 {
		return dst, fmt.Errorf("wire: batch payload %d bytes exceeds frame limit", len(frames))
	}
	dst, lenAt := appendHeader(dst, FrameBatch, 0)
	dst = appendUvarint(dst, uint64(count))
	dst = append(dst, frames...)
	return patchLength(dst, lenAt), nil
}

// BatchDecoder iterates the inner frames of one batch frame. It is a
// value type holding only slices into the batch buffer, so decoding a
// batch allocates nothing. Use:
//
//	dec, err := wire.NewBatchDecoder(body)
//	for dec.Next() {
//		switch dec.Type() { ... dec.Payload() ... }
//	}
//	if err := dec.Err(); err != nil { ... }
type BatchDecoder struct {
	rest  []byte
	count int
	seen  int
	typ   FrameType
	flags byte
	pay   []byte
	err   error
}

// NewBatchDecoder validates the outer batch header and positions the
// decoder before the first inner frame.
func NewBatchDecoder(batch []byte) (BatchDecoder, error) {
	typ, flags, payload, rest, err := SplitFrame(batch)
	if err != nil {
		return BatchDecoder{}, err
	}
	if typ != FrameBatch {
		return BatchDecoder{}, fmt.Errorf("wire: frame type %s, want batch", typ)
	}
	if flags != 0 {
		return BatchDecoder{}, fmt.Errorf("wire: batch frame has flags %#x", flags)
	}
	if len(rest) != 0 {
		return BatchDecoder{}, fmt.Errorf("wire: %d trailing bytes after batch frame", len(rest))
	}
	fr := frameReader{p: payload}
	n, err := fr.uvarint()
	if err != nil {
		return BatchDecoder{}, err
	}
	if n > MaxBatchFrames {
		return BatchDecoder{}, fmt.Errorf("wire: batch declares %d frames, limit %d", n, MaxBatchFrames)
	}
	// Every inner frame costs at least a header; reject counts the
	// payload cannot possibly hold.
	if n > uint64(fr.remaining()/headerSize) {
		return BatchDecoder{}, fmt.Errorf("wire: batch declares %d frames, payload fits at most %d", n, fr.remaining()/headerSize)
	}
	return BatchDecoder{rest: payload[fr.off:], count: int(n)}, nil
}

// Next advances to the next inner frame. It returns false at the end of
// the batch or on a malformed frame; check Err afterwards.
func (d *BatchDecoder) Next() bool {
	if d.err != nil {
		return false
	}
	if d.seen == d.count {
		if len(d.rest) != 0 {
			d.err = fmt.Errorf("wire: %d bytes after final batch frame", len(d.rest))
		}
		return false
	}
	typ, flags, payload, rest, err := SplitFrame(d.rest)
	if err != nil {
		d.err = fmt.Errorf("wire: batch frame %d: %w", d.seen, err)
		return false
	}
	if typ == FrameBatch {
		d.err = fmt.Errorf("wire: batch frame %d: batches do not nest", d.seen)
		return false
	}
	d.typ, d.flags, d.pay, d.rest = typ, flags, payload, rest
	d.seen++
	return true
}

// Type is the current inner frame's type.
func (d *BatchDecoder) Type() FrameType { return d.typ }

// Flags is the current inner frame's flag byte.
func (d *BatchDecoder) Flags() byte { return d.flags }

// Payload is the current inner frame's payload, aliasing the batch
// buffer.
func (d *BatchDecoder) Payload() []byte { return d.pay }

// Err reports the first malformed-frame error, or nil when the batch
// decoded cleanly.
func (d *BatchDecoder) Err() error { return d.err }
