// Package p4rt is SFP's controller↔switch control-plane API — a compact,
// JSON-over-TCP stand-in for P4Runtime. The switch side (Server) fronts a
// vswitch.VSwitch; the controller side (Client) installs physical NFs,
// allocates and deallocates tenant SFCs, and reads resource counters. The
// protocol is length-delimited JSON frames over a single TCP connection;
// requests are pipelined (many in flight per connection, matched to their
// responses by an echoed request ID) and may be batched (MsgBatch carries
// an ordered list of mutating sub-ops executed all-or-nothing).
package p4rt

import (
	"encoding/json"
	"errors"
	"fmt"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// ErrUnavailable marks a transient target failure: the request was NOT
// executed and may be retried safely. Targets (or decorators such as
// faultnet.FlakyTarget) wrap it; the server translates it to
// Response.Transient so clients know the retry is safe.
var ErrUnavailable = errors.New("p4rt: target temporarily unavailable")

// MsgType enumerates the RPCs.
type MsgType string

// RPC names.
const (
	MsgInstallPhysical MsgType = "install_physical"
	MsgAllocate        MsgType = "allocate"
	MsgAllocateAt      MsgType = "allocate_at"
	MsgDeallocate      MsgType = "deallocate"
	MsgLayout          MsgType = "layout"
	MsgStats           MsgType = "stats"
	// MsgDumpState reads back the switch's full installed configuration
	// (physical NFs + tenant allocations) for controller-side
	// reconciliation. Read-only: same retry class as Layout/Stats.
	MsgDumpState MsgType = "dump_state"
	MsgPing      MsgType = "ping"
	MsgInject    MsgType = "inject"
	// MsgBatch carries an ordered list of mutating sub-ops executed
	// server-side under one dispatch-lock acquisition with all-or-nothing
	// semantics (see Server.executeBatch).
	MsgBatch MsgType = "batch"
)

// Request is one controller→switch message.
type Request struct {
	Type MsgType `json:"type"`
	// ID is a per-client monotonically increasing request ID. The server
	// echoes it in the response (desync detection) and, together with
	// Client, dedups replayed mutating requests so retries after a lost
	// response are no-ops. Zero means "legacy client, no tracking".
	ID uint64 `json:"id,omitempty"`
	// Client identifies the issuing client across reconnects (random,
	// chosen at Dial). Zero disables dedup for this request.
	Client uint64 `json:"client,omitempty"`
	// InstallPhysical
	Stage    int    `json:"stage,omitempty"`
	NFType   string `json:"nf_type,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
	// Allocate / AllocateAt / Deallocate
	SFC        *SFCSpec        `json:"sfc,omitempty"`
	Tenant     uint32          `json:"tenant,omitempty"`
	Placements []PlacementSpec `json:"placements,omitempty"`
	// Inject: a wire-format packet (the switch parses it, runs the
	// pipeline, and reports the outcome) plus the simulated timestamp.
	Wire  []byte  `json:"wire,omitempty"`
	NowNs float64 `json:"now_ns,omitempty"`
	// Batch: the ordered sub-operations of a MsgBatch request.
	Ops []BatchOp `json:"ops,omitempty"`
}

// BatchOp is one sub-operation of a MsgBatch request. Type must be one of
// the mutating RPCs (install_physical, allocate, allocate_at, deallocate);
// the populated fields mirror the stand-alone Request for that type.
type BatchOp struct {
	Type       MsgType         `json:"type"`
	Stage      int             `json:"stage,omitempty"`
	NFType     string          `json:"nf_type,omitempty"`
	Capacity   int             `json:"capacity,omitempty"`
	SFC        *SFCSpec        `json:"sfc,omitempty"`
	Tenant     uint32          `json:"tenant,omitempty"`
	Placements []PlacementSpec `json:"placements,omitempty"`
}

// BatchResult is one sub-op's outcome within a successful batch response.
// Placements is populated only for allocate sub-ops (switch-side folding,
// where the caller does not know the landing spots); allocate_at results
// omit it — the caller supplied the placements, echoing them back would
// just bloat the response frame.
type BatchResult struct {
	OK         bool            `json:"ok"`
	Error      string          `json:"error,omitempty"`
	Placements []PlacementSpec `json:"placements,omitempty"`
	Passes     int             `json:"passes,omitempty"`
}

// OpInstallPhysical builds an install_physical sub-op.
func OpInstallPhysical(stage int, t nf.Type, capacity int) BatchOp {
	return BatchOp{Type: MsgInstallPhysical, Stage: stage, NFType: t.String(), Capacity: capacity}
}

// OpAllocate builds an allocate (switch-side folding) sub-op.
func OpAllocate(sfc *vswitch.SFC) BatchOp {
	return BatchOp{Type: MsgAllocate, SFC: FromSFC(sfc)}
}

// OpAllocateAt builds an allocate_at sub-op with explicit placements.
func OpAllocateAt(sfc *vswitch.SFC, placements []vswitch.Placement) BatchOp {
	return BatchOp{Type: MsgAllocateAt, SFC: FromSFC(sfc), Placements: fromPlacements(placements)}
}

// OpDeallocate builds a deallocate sub-op.
func OpDeallocate(tenant uint32) BatchOp {
	return BatchOp{Type: MsgDeallocate, Tenant: tenant}
}

// Response is one switch→controller message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// ID echoes the request ID so clients can detect a desynchronized
	// frame stream (e.g. a stale response left by a timed-out call).
	ID uint64 `json:"id,omitempty"`
	// Transient marks an error as retry-safe: the target reported it was
	// temporarily unavailable and did not execute the request.
	Transient bool `json:"transient,omitempty"`
	// Allocate*: where the SFC landed.
	Placements []PlacementSpec `json:"placements,omitempty"`
	Passes     int             `json:"passes,omitempty"`
	// Layout: per-stage NF type names.
	Layout [][]string `json:"layout,omitempty"`
	// Stats.
	Stats *Stats `json:"stats,omitempty"`
	// Inject: processing outcome and the egress packet bytes.
	Inject *InjectResult `json:"inject,omitempty"`
	// Batch: per-sub-op outcomes, one per Request.Ops entry, present only
	// when the whole batch applied (OK). On failure nothing was applied.
	Results []BatchResult `json:"results,omitempty"`
	// DumpState: the switch's full installed configuration.
	State *StateDump `json:"state,omitempty"`
}

// StateDump is the wire form of a switch's complete installed
// configuration: what the controller reconciles its intent against.
type StateDump struct {
	Physical []PhysicalDump `json:"physical,omitempty"`
	Tenants  []TenantDump   `json:"tenants,omitempty"`
}

// PhysicalDump is the wire form of one installed physical NF.
type PhysicalDump struct {
	Stage    int    `json:"stage"`
	Type     string `json:"type"`
	Capacity int    `json:"capacity"`
	Used     int    `json:"used"`
}

// TenantDump is the wire form of one live tenant allocation.
type TenantDump struct {
	SFC        *SFCSpec        `json:"sfc"`
	Placements []PlacementSpec `json:"placements"`
	Passes     int             `json:"passes,omitempty"`
}

// InjectResult reports what the pipeline did to an injected packet.
type InjectResult struct {
	LatencyNs     float64 `json:"latency_ns"`
	Passes        int     `json:"passes"`
	Dropped       bool    `json:"dropped"`
	EgressPort    uint16  `json:"egress_port"`
	TablesApplied int     `json:"tables_applied"`
	// Wire is the deparsed egress packet (empty when dropped).
	Wire []byte `json:"wire,omitempty"`
}

// SFCSpec is the wire form of a tenant SFC.
type SFCSpec struct {
	Tenant        uint32   `json:"tenant"`
	BandwidthGbps float64  `json:"bandwidth_gbps"`
	NFs           []NFSpec `json:"nfs"`
}

// NFSpec is the wire form of one logical NF.
type NFSpec struct {
	Type  string     `json:"type"`
	Rules []RuleSpec `json:"rules"`
}

// RuleSpec is the wire form of one tenant rule.
type RuleSpec struct {
	Priority int         `json:"priority,omitempty"`
	Matches  []MatchSpec `json:"matches"`
	Action   string      `json:"action"`
	Params   []uint64    `json:"params,omitempty"`
}

// MatchSpec is the wire form of one match field value.
type MatchSpec struct {
	Value     uint64 `json:"value,omitempty"`
	Mask      uint64 `json:"mask,omitempty"`
	PrefixLen int    `json:"prefix_len,omitempty"`
	Lo        uint64 `json:"lo,omitempty"`
	Hi        uint64 `json:"hi,omitempty"`
}

// PlacementSpec is the wire form of one box placement.
type PlacementSpec struct {
	NFIndex int    `json:"nf_index"`
	Type    string `json:"type"`
	Stage   int    `json:"stage"`
	Pass    int    `json:"pass"`
}

// Stats reports switch resource usage.
type Stats struct {
	Stages        int     `json:"stages"`
	BlocksUsed    int     `json:"blocks_used"`
	EntriesUsed   int     `json:"entries_used"`
	BandwidthGbps float64 `json:"bandwidth_gbps"`
	Tenants       int     `json:"tenants"`
	Processed     uint64  `json:"processed"`
	Recirculated  uint64  `json:"recirculated"`
}

// ToSFC converts the wire SFC to the vswitch form.
func (s *SFCSpec) ToSFC() (*vswitch.SFC, error) {
	out := &vswitch.SFC{Tenant: s.Tenant, BandwidthGbps: s.BandwidthGbps}
	out.NFs = make([]*nf.Config, 0, len(s.NFs))
	for i, n := range s.NFs {
		t, err := nf.ParseType(n.Type)
		if err != nil {
			return nil, fmt.Errorf("p4rt: NF %d: %w", i, err)
		}
		cfg := &nf.Config{Type: t, Rules: make([]nf.ConfigRule, 0, len(n.Rules))}
		for _, r := range n.Rules {
			matches := make([]pipeline.Match, len(r.Matches))
			for k, m := range r.Matches {
				matches[k] = pipeline.Match{Value: m.Value, Mask: m.Mask, PrefixLen: m.PrefixLen, Lo: m.Lo, Hi: m.Hi}
			}
			cfg.Rules = append(cfg.Rules, nf.ConfigRule{
				Priority: r.Priority, Matches: matches, Action: r.Action, Params: r.Params,
			})
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		out.NFs = append(out.NFs, cfg)
	}
	return out, nil
}

// FromSFC converts a vswitch SFC to the wire form.
func FromSFC(s *vswitch.SFC) *SFCSpec {
	spec := &SFCSpec{Tenant: s.Tenant, BandwidthGbps: s.BandwidthGbps}
	spec.NFs = make([]NFSpec, 0, len(s.NFs))
	for _, cfg := range s.NFs {
		n := NFSpec{Type: cfg.Type.String(), Rules: make([]RuleSpec, 0, len(cfg.Rules))}
		for _, r := range cfg.Rules {
			matches := make([]MatchSpec, len(r.Matches))
			for k, m := range r.Matches {
				matches[k] = MatchSpec{Value: m.Value, Mask: m.Mask, PrefixLen: m.PrefixLen, Lo: m.Lo, Hi: m.Hi}
			}
			n.Rules = append(n.Rules, RuleSpec{Priority: r.Priority, Matches: matches, Action: r.Action, Params: r.Params})
		}
		spec.NFs = append(spec.NFs, n)
	}
	return spec
}

// toPlacements converts wire placements to vswitch form.
func toPlacements(specs []PlacementSpec) ([]vswitch.Placement, error) {
	out := make([]vswitch.Placement, len(specs))
	for i, s := range specs {
		t, err := nf.ParseType(s.Type)
		if err != nil {
			return nil, err
		}
		out[i] = vswitch.Placement{NFIndex: s.NFIndex, Type: t, Stage: s.Stage, Pass: s.Pass}
	}
	return out, nil
}

// fromPlacements converts vswitch placements to wire form.
func fromPlacements(pls []vswitch.Placement) []PlacementSpec {
	out := make([]PlacementSpec, len(pls))
	for i, p := range pls {
		out[i] = PlacementSpec{NFIndex: p.NFIndex, Type: p.Type.String(), Stage: p.Stage, Pass: p.Pass}
	}
	return out
}

// FromState converts an exported switch state to the wire form.
func FromState(st *vswitch.State) *StateDump {
	d := &StateDump{}
	for _, p := range st.Physical {
		d.Physical = append(d.Physical, PhysicalDump{
			Stage: p.Stage, Type: p.Type.String(), Capacity: p.Capacity, Used: p.Used,
		})
	}
	for _, t := range st.Tenants {
		d.Tenants = append(d.Tenants, TenantDump{
			SFC:        FromSFC(t.Spec),
			Placements: fromPlacements(t.Placements),
			Passes:     t.Passes,
		})
	}
	return d
}

// ToState converts a wire state dump back to the vswitch form.
func (d *StateDump) ToState() (*vswitch.State, error) {
	st := &vswitch.State{}
	for i, p := range d.Physical {
		t, err := nf.ParseType(p.Type)
		if err != nil {
			return nil, fmt.Errorf("p4rt: state physical %d: %w", i, err)
		}
		st.Physical = append(st.Physical, vswitch.PhysicalState{
			Stage: p.Stage, Type: t, Capacity: p.Capacity, Used: p.Used,
		})
	}
	for i, td := range d.Tenants {
		if td.SFC == nil {
			return nil, fmt.Errorf("p4rt: state tenant %d: missing sfc", i)
		}
		sfc, err := td.SFC.ToSFC()
		if err != nil {
			return nil, fmt.Errorf("p4rt: state tenant %d: %w", i, err)
		}
		pls, err := toPlacements(td.Placements)
		if err != nil {
			return nil, fmt.Errorf("p4rt: state tenant %d: %w", i, err)
		}
		st.Tenants = append(st.Tenants, vswitch.TenantState{
			Spec:          sfc,
			Placements:    pls,
			Passes:        td.Passes,
			BandwidthGbps: sfc.BandwidthGbps,
		})
	}
	return st, nil
}

// marshal encodes any message as one JSON frame.
func marshal(v any) ([]byte, error) { return json.Marshal(v) }
