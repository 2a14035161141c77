package httpapi

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	"histanon/internal/geo"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// POST /v1/batch: the binary wire-protocol ingest channel. The body is
// one wire batch frame (internal/wire) of location updates and service
// calls; the text/JSON API stays the debug surface, this endpoint is
// the hot path a device SDK posts its batches to.
//
// Content negotiation: the request Content-Type must be WireContentType
// or the endpoint answers 415 — the JSON API never arrives here by
// accident, and a binary body never hits the JSON decoder. The Accept
// header picks the response encoding: WireContentType returns a batch
// frame of decision frames (one per service call, in order); anything
// else returns the BatchResponse JSON mirror.
//
// Each run of consecutive location frames is ingested as one unit: the
// frames are parsed off the request buffer (zero-copy, zero-alloc) into
// a pooled run handed to ts.Server.RecordLocations, so a run costs one
// store call, one index call and, on the durable store, one WAL write
// and one group commit. The run is handed over before every
// service-call frame, so Algorithm 1 sees every location earlier in the
// batch, and before any error response and the final response: the
// response acknowledges every location the batch recorded. A run the
// durable store could not persist ends the batch with 503
// (storage_wal_failed) and no later frame is processed. Service-call
// frames go through the same traced request pipeline as POST
// /v1/request, including per-frame traceparent propagation.

// WireContentType is the media type of the binary wire framing.
const WireContentType = "application/x-histanon-wire"

// BatchResponse is the JSON body of POST /v1/batch when the caller does
// not accept the binary framing.
type BatchResponse struct {
	// Frames is how many inner frames the batch carried.
	Frames int `json:"frames"`
	// Locations is how many of them were location updates.
	Locations int `json:"locations"`
	// Decisions are the service-call verdicts, in batch order.
	Decisions []DecisionResponse `json:"decisions,omitempty"`
}

// batchBufPool recycles body-read and response-build buffers across
// batch requests, keeping the per-batch allocation cost flat regardless
// of batch size.
var batchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// samplePool recycles the location runs handleBatch collects.
var samplePool = sync.Pool{
	New: func() any {
		s := make([]phl.Sample, 0, 512)
		return &s
	},
}

// SetWireBatch enables or disables the binary /v1/batch endpoint.
// Disabled, the route answers 404 and the JSON API remains the only
// ingest surface. Configure before serving traffic.
func (h *Handler) SetWireBatch(enabled bool) { h.wireBatchOff = !enabled }

// SetWireBatchMaxBodyBytes bounds /v1/batch bodies separately from the
// JSON endpoints (binary batches are legitimately larger than any JSON
// body); n <= 0 falls back to the general body bound. Configure before
// serving traffic.
func (h *Handler) SetWireBatchMaxBodyBytes(n int64) {
	if n < 0 {
		n = 0
	}
	h.batchMaxBody = n
}

// handleBatch serves POST /v1/batch.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if h.wireBatchOff {
		http.NotFound(w, r)
		return
	}
	maxBody := h.batchMaxBody
	if maxBody <= 0 {
		maxBody = h.maxBody
	}
	ws := h.srv.Wire
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, WireContentType) {
		writeJSON(w, http.StatusUnsupportedMediaType,
			errorResponse{Error: "Content-Type must be " + WireContentType})
		return
	}
	bufp := batchBufPool.Get().(*[]byte)
	defer func() {
		batchBufPool.Put(bufp)
	}()
	body, err := readAllInto((*bufp)[:0], http.MaxBytesReader(w, r.Body, maxBody))
	*bufp = body
	ws.Bytes.Add(int64(len(body)))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			ws.DecodeErrors.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: "batch exceeds body limit"})
			return
		}
		ws.DecodeErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "short body: " + err.Error()})
		return
	}

	dec, err := wire.NewBatchDecoder(body)
	if err != nil {
		ws.DecodeErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	binaryResp := strings.HasPrefix(r.Header.Get("Accept"), WireContentType)
	respp := batchBufPool.Get().(*[]byte)
	defer batchBufPool.Put(respp)
	decFrames := (*respp)[:0]
	defer func() { *respp = decFrames }()

	runp := samplePool.Get().(*[]phl.Sample)
	run := (*runp)[:0]
	defer func() {
		*runp = run[:0]
		samplePool.Put(runp)
	}()

	var jsonResp BatchResponse
	frames, locations, calls := 0, 0, 0
	for dec.Next() {
		frames++
		switch dec.Type() {
		case wire.FrameLocation:
			l, err := wire.ParseLocationPayload(dec.Flags(), dec.Payload())
			if err != nil {
				h.rejectBatch(w, run, err.Error())
				return
			}
			run = append(run, phl.Sample{User: phl.UserID(l.User), Point: l.Point()})
			locations++
		case wire.FrameServiceCall:
			if run, err = h.recordRun(run); err != nil {
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
				return
			}
			c, err := wire.ParseServiceCallPayload(dec.Flags(), dec.Payload())
			if err != nil {
				h.rejectBatch(w, run, err.Error())
				return
			}
			calls++
			var parent obs.TraceContext
			if c.Traceparent != "" {
				// Malformed traceparents are ignored, as on /v1/request.
				if tc, err := obs.ParseTraceparent(c.Traceparent); err == nil {
					parent = tc
				}
			}
			d := h.srv.RequestTraced(phl.UserID(c.User), geo.STPoint{
				P: geo.Point{X: c.X, Y: c.Y}, T: c.T,
			}, c.Service, c.Data, parent)
			ws.ServiceCalls.Add(1)
			if binaryResp {
				decFrames = wire.AppendDecision(decFrames, decisionFrame(d))
			} else {
				jsonResp.Decisions = append(jsonResp.Decisions, decisionJSON(d))
			}
		default:
			ws.Other.Add(1)
			h.rejectBatch(w, run,
				"batch ingest accepts location and service_call frames, got "+dec.Type().String())
			return
		}
	}
	if run, err = h.recordRun(run); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	if err := dec.Err(); err != nil {
		h.rejectBatch(w, run, err.Error())
		return
	}
	ws.Batches.Add(1)
	ws.BatchFrames.Observe(float64(frames))

	if binaryResp {
		inner := len(decFrames)
		batch, err := wire.AppendBatch(decFrames, calls, decFrames[:inner])
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", WireContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(batch[inner:])
		decFrames = batch[:0]
		return
	}
	jsonResp.Frames = frames
	jsonResp.Locations = locations
	writeJSON(w, http.StatusOK, jsonResp)
}

// recordRun hands a run of location updates to the server and returns
// the run emptied for reuse, with the server's error when the run was
// not persisted. A persisted run counts as location frames at once, so
// a batch rejected later still counts the frames it recorded.
func (h *Handler) recordRun(run []phl.Sample) ([]phl.Sample, error) {
	if len(run) == 0 {
		return run, nil
	}
	if err := h.srv.RecordLocations(run); err != nil {
		return run[:0], err
	}
	h.srv.Wire.Locations.Add(int64(len(run)))
	return run[:0], nil
}

// rejectBatch answers a malformed batch with 400. The locations decoded
// before the malformed frame are recorded first: frames ahead of a
// fault have always been accepted, unless the store could not persist
// them, which answers 503 instead.
func (h *Handler) rejectBatch(w http.ResponseWriter, run []phl.Sample, msg string) {
	h.srv.Wire.DecodeErrors.Add(1)
	if _, err := h.recordRun(run); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
}

// decisionFrame projects a ts.Decision onto the binary wire, field for
// field the same subset DecisionResponse exposes as JSON.
func decisionFrame(d ts.Decision) wire.DecisionFrame {
	f := wire.DecisionFrame{
		Forwarded:      d.Forwarded,
		Generalized:    d.Generalized,
		HKAnonymity:    d.HKAnonymity,
		Unlinked:       d.Unlinked,
		AtRisk:         d.AtRisk,
		Suppressed:     d.Suppressed,
		Degraded:       d.Degraded,
		QIDExposed:     d.QIDExposed,
		MatchedLBQID:   d.MatchedLBQID,
		DegradedReason: d.DegradedReason,
		TraceID:        d.TraceID(),
	}
	if d.Request != nil {
		f.Pseudonym = string(d.Request.Pseudonym)
		f.HasContext = true
		f.Context = d.Request.Context
	}
	return f
}

// decisionJSON projects a ts.Decision onto the JSON wire; shared by
// /v1/request and the JSON flavor of /v1/batch.
func decisionJSON(d ts.Decision) DecisionResponse {
	resp := DecisionResponse{
		Forwarded:      d.Forwarded,
		Generalized:    d.Generalized,
		HKAnonymity:    d.HKAnonymity,
		MatchedLBQID:   d.MatchedLBQID,
		Unlinked:       d.Unlinked,
		AtRisk:         d.AtRisk,
		Suppressed:     d.Suppressed,
		Degraded:       d.Degraded,
		DegradedReason: d.DegradedReason,
		QIDExposed:     d.QIDExposed,
		TraceID:        d.TraceID(),
	}
	if d.Request != nil {
		resp.Pseudonym = string(d.Request.Pseudonym)
		resp.Context = &ContextJSON{
			MinX: d.Request.Context.Area.MinX, MinY: d.Request.Context.Area.MinY,
			MaxX: d.Request.Context.Area.MaxX, MaxY: d.Request.Context.Area.MaxY,
			Start: d.Request.Context.Time.Start, End: d.Request.Context.Time.End,
		}
	}
	return resp
}

// readAllInto is io.ReadAll into a reused buffer: it appends to buf and
// returns the extended slice, allocating only when the body outgrows
// the buffer's capacity.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
