package histanon

import (
	"io"

	"histanon/internal/deploy"
	"histanon/internal/generalize"
	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/lbqid"
	"histanon/internal/metrics"
	"histanon/internal/mine"
	"histanon/internal/mixzone"
	"histanon/internal/mobility"
	"histanon/internal/obs"
	"histanon/internal/phl"
	"histanon/internal/policy"
	"histanon/internal/sp"
	"histanon/internal/tgran"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// Spatio-temporal primitives.
type (
	// Point is a planar position in meters.
	Point = geo.Point
	// Rect is an axis-aligned area.
	Rect = geo.Rect
	// Interval is an anchored time interval in engine seconds.
	Interval = geo.Interval
	// STPoint is a position at an instant.
	STPoint = geo.STPoint
	// STBox is a generalized request context ⟨Area, TimeInterval⟩.
	STBox = geo.STBox
	// STMetric is the 3D metric used by Algorithm 1.
	STMetric = geo.STMetric
)

// Identity and wire types.
type (
	// UserID identifies a user inside the trusted server.
	UserID = phl.UserID
	// Pseudonym identifies a user toward service providers.
	Pseudonym = wire.Pseudonym
	// Request is the TS→SP wire format of the paper's §3.
	Request = wire.Request
	// Response is the SP→device answer, routed by msgid.
	Response = wire.Response
)

// Quasi-identifier types.
type (
	// LBQID is a location-based quasi-identifier (paper Def. 1).
	LBQID = lbqid.LBQID
	// LBQIDElement is one ⟨Area, U-TimeInterval⟩ step of a pattern.
	LBQIDElement = lbqid.Element
	// Matcher incrementally matches a request stream against an LBQID.
	Matcher = lbqid.Matcher
)

// Trusted-server types.
type (
	// Config assembles a trusted server.
	Config = ts.Config
	// TrustedServer is the paper's TS with the §6.1 strategy.
	TrustedServer = ts.Server
	// Decision reports what the TS did with one request.
	Decision = ts.Decision
	// Policy is a user's quantitative privacy preference.
	Policy = ts.Policy
	// Level is the qualitative privacy degree (Low/Medium/High).
	Level = ts.Level
	// ServiceSpec declares a service's tolerance constraints.
	ServiceSpec = ts.ServiceSpec
	// Inbox receives service responses on a user's device.
	Inbox = ts.Inbox
	// InboxFunc adapts a function to Inbox.
	InboxFunc = ts.InboxFunc
	// Notifier observes at-risk and unlinking events.
	Notifier = ts.Notifier
	// Tolerance is the coarsest useful resolution of a service.
	Tolerance = generalize.Tolerance
	// DecaySchedule is the §6.2 witness over-provisioning strategy.
	DecaySchedule = generalize.DecaySchedule
	// MixZone is a static mix zone.
	MixZone = mixzone.Zone
	// OnDemandMix configures on-demand mix-zone planning.
	OnDemandMix = mixzone.OnDemand
)

// Adversary types.
type (
	// Provider is a recording service provider.
	Provider = sp.Provider
	// ServiceLogic computes an SP-side answer from a generalized request.
	ServiceLogic = sp.Logic
	// ServiceLogicFunc adapts a function to ServiceLogic.
	ServiceLogicFunc = sp.LogicFunc
)

// Workload types.
type (
	// MobilityConfig parameterizes the synthetic city generator.
	MobilityConfig = mobility.Config
	// MobilityWorld is a generated scenario.
	MobilityWorld = mobility.World
	// MobilityEvent is one location update (possibly carrying a request).
	MobilityEvent = mobility.Event
)

// The qualitative privacy levels of the paper's user interface.
const (
	Low    = ts.Low
	Medium = ts.Medium
	High   = ts.High
)

// NewTrustedServer returns a trusted server forwarding to out (commonly
// a *Provider).
func NewTrustedServer(cfg Config, out ts.Outbox) *TrustedServer {
	return ts.New(cfg, out)
}

// NewProvider returns a recording service provider.
func NewProvider() *Provider { return sp.NewProvider() }

// PolicyForLevel translates a qualitative level into concrete
// parameters (k, Θ, decay schedule).
func PolicyForLevel(l Level) Policy { return ts.PolicyForLevel(l) }

// ParseLBQIDs reads quasi-identifier definitions in the block format of
// the lbqid package (see the package example in doc.go).
func ParseLBQIDs(r io.Reader) ([]*LBQID, error) { return lbqid.Parse(r) }

// ParseLBQID parses a definition holding exactly one pattern.
func ParseLBQID(s string) (*LBQID, error) { return lbqid.ParseOne(s) }

// NewMatcher returns a continuous matcher for q.
func NewMatcher(q *LBQID) *Matcher { return lbqid.NewMatcher(q) }

// GenerateMobility builds a synthetic city workload.
func GenerateMobility(cfg MobilityConfig) *MobilityWorld { return mobility.Generate(cfg) }

// DefaultMobilityConfig is a mid-sized synthetic city.
func DefaultMobilityConfig() MobilityConfig { return mobility.DefaultConfig() }

// Calendar constants of the engine's time scale (seconds).
const (
	Second = tgran.Second
	Minute = tgran.Minute
	Hour   = tgran.Hour
	Day    = tgran.Day
	Week   = tgran.Week
)

// Extension subsystems (the paper's §7 open issues).
type (
	// PolicySet is an ordered rule-based policy specification.
	PolicySet = policy.Set
	// DeployInput is a deployment-area feasibility question.
	DeployInput = deploy.Input
	// DeployReport is the feasibility analyzer's answer.
	DeployReport = deploy.Report
	// MinedCandidate is an LBQID derived from historical movement data.
	MinedCandidate = mine.Candidate
	// MineConfig tunes the LBQID miner.
	MineConfig = mine.Config
	// APIHandler serves the trusted server over HTTP/JSON.
	APIHandler = httpapi.Handler
	// APIClient is the matching Go client.
	APIClient = httpapi.Client
	// ServiceRequestJSON is the wire form of a device's service request.
	ServiceRequestJSON = httpapi.ServiceRequest
	// DecisionJSON is the wire form of the TS decision.
	DecisionJSON = httpapi.DecisionResponse
)

// ParsePolicies reads a rule-based policy specification (§3): ordered
// "rule ... when ... then ..." lines plus a default level.
func ParsePolicies(r io.Reader) (*PolicySet, error) { return policy.Parse(r) }

// AnalyzeDeployment answers the §7 deployment question: is a service
// with the given tolerance and anonymity demand deployable in an area,
// given representative movement data?
func AnalyzeDeployment(in DeployInput) (DeployReport, error) { return deploy.Analyze(in) }

// MineLBQIDs derives distinctive recurring patterns — candidate
// quasi-identifiers — from a location store (§4's sketched derivation
// process).
func MineLBQIDs(store phl.Storer, cfg MineConfig) []MinedCandidate {
	return mine.Mine(store, cfg)
}

// Observability types (see OBSERVABILITY.md for the full reference).
type (
	// Observer bundles request tracing, the privacy histograms and the
	// audit sink; every TrustedServer carries one as its Obs field.
	Observer = obs.Observer
	// AuditLog records privacy-relevant decisions as JSON lines.
	AuditLog = obs.AuditLog
	// AuditEvent is one audit record.
	AuditEvent = obs.Event
	// Span is one sampled request's per-stage timing and outcome.
	Span = obs.Span
	// Histogram is a fixed-bucket, wait-free histogram.
	Histogram = metrics.Histogram
)

// NewAuditLog returns an audit sink writing JSON lines to w; install it
// with server.Obs.SetAudit.
func NewAuditLog(w io.Writer) *AuditLog { return obs.NewAuditLog(w) }

// ReadAuditEvents parses a JSON-lines audit stream back into events.
func ReadAuditEvents(r io.Reader) ([]AuditEvent, error) { return obs.ReadEvents(r) }

// ReplayAchievedK rebuilds the achieved-k histogram from an audit
// stream; it equals the live server.Obs.AchievedK distribution.
func ReplayAchievedK(r io.Reader) (*Histogram, error) { return obs.ReplayAchievedK(r) }

// NewAPIHandler exposes a trusted server over HTTP/JSON.
func NewAPIHandler(srv *TrustedServer) *APIHandler { return httpapi.New(srv) }

// NewAPIClient returns a client for a histanon HTTP endpoint.
func NewAPIClient(baseURL string) *APIClient { return httpapi.NewClient(baseURL) }
