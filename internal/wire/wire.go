// Package wire defines the request format that travels from the trusted
// server to service providers (paper §3):
//
//	(msgid, UserPseudonym, Area, TimeInterval, Data)
//
// The trusted server knows the exact position and instant behind each
// request; a service provider sees only this generalized form. The
// package sits at the bottom of the dependency graph so that the TS, the
// SP/attacker, and the linkability tooling can all share the type.
// Requests and responses pass between TS and SP in memory; the binary
// codec here (binary.go, batch.go) carries only the device→TS batch
// channel.
package wire

import (
	"fmt"
	"math"

	"histanon/internal/geo"
)

// MsgID identifies a request on the TS↔SP channel; the TS uses it to
// route the answer back to the user's device without revealing the
// network address.
type MsgID int64

// Pseudonym hides the user identity toward a service provider while
// still letting the SP authenticate, correlate, and charge the user.
type Pseudonym string

// Request is one service request as seen by a service provider.
type Request struct {
	// ID is the message identifier (msgid).
	ID MsgID
	// Pseudonym stands in for the user identity.
	Pseudonym Pseudonym
	// Context is the possibly generalized ⟨Area, TimeInterval⟩ in which
	// the request was issued.
	Context geo.STBox
	// Service names the destination service.
	Service string
	// Data carries the service-specific attribute-value pairs.
	Data map[string]string
}

func (r *Request) String() string {
	return fmt.Sprintf("req %d pseudo=%s svc=%s ctx=%s", r.ID, r.Pseudonym, r.Service, r.Context)
}

// Validate reports whether r is a well-formed request: non-empty
// pseudonym and service, a valid, finite context box, and a data map
// that passes ValidateData.
func (r *Request) Validate() error {
	if r.Pseudonym == "" {
		return fmt.Errorf("wire: empty pseudonym")
	}
	if r.Service == "" {
		return fmt.Errorf("wire: empty service")
	}
	if !r.Context.Area.Valid() || !r.Context.Time.Valid() {
		return fmt.Errorf("wire: invalid context %v", r.Context)
	}
	for _, v := range []float64{r.Context.Area.MinX, r.Context.Area.MinY, r.Context.Area.MaxX, r.Context.Area.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wire: non-finite context coordinate %v", v)
		}
	}
	return ValidateData(r.Data)
}

// ValidateData reports whether m is a well-formed data map: no key is
// empty. The binary parser rejects an empty key, so both ingest
// channels refuse a service call whose data has one.
func ValidateData(m map[string]string) error {
	if _, ok := m[""]; ok {
		return fmt.Errorf("wire: empty data key")
	}
	return nil
}

// MaxAbsTime bounds the timestamps the server accepts from devices:
// |T| < 2^53 s. Inside it every timestamp is exact in float64 and the
// difference of any two fits int64, so geo.STMetric's time terms cannot
// wrap.
const MaxAbsTime = 1 << 53

// ValidateTime reports whether t lies inside ±MaxAbsTime. Both ingest
// channels refuse a location or service call outside it; the binary
// codec itself still carries any int64.
func ValidateTime(t int64) error {
	if t <= -MaxAbsTime || t >= MaxAbsTime {
		return fmt.Errorf("wire: timestamp %d outside ±2^53", t)
	}
	return nil
}

// Response is a service provider's answer to a request, routed back to
// the user's device by the trusted server via the msgid (the SP never
// learns a network address).
type Response struct {
	// ID echoes the request's msgid.
	ID MsgID
	// Service names the answering service.
	Service string
	// Payload carries the service output.
	Payload map[string]string
}

func (r *Response) String() string {
	return fmt.Sprintf("resp %d svc=%s", r.ID, r.Service)
}
