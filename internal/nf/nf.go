// Package nf is SFP's network-function library: the catalogue of NF types a
// provider pre-installs as physical NFs and tenants chain into SFCs.
//
// Each NF type is described by a Spec — its match-key fields, its action
// set, its default (miss) behaviour, and any stateful register arrays it
// needs. Per the paper's simplification (§VII "Multiple-table NFs"), each NF
// is modeled as one big match-action table; the load balancer's auxiliary
// tables (tab_lbhash / tab_lbselect from Fig. 2) are folded into its default
// action, which hashes the flow and picks a backend from the pool registers.
package nf

import (
	"fmt"

	"sfp/internal/packet"
	"sfp/internal/pipeline"
)

// Type identifies an NF type (the index i of the placement model, 1-based
// to match the paper's i ∈ [1, I]).
type Type int

// The NF catalogue. TypeCount is I, the total number of types.
const (
	Firewall Type = 1 + iota
	LoadBalancer
	TrafficClassifier
	Router
	NAT
	RateLimiter
	VPNGateway
	Monitor
	DDoSMitigator
	CacheIndex
	typeEnd
)

// TypeCount is the number of NF types in the catalogue (I = 10, matching
// the paper's evaluation).
const TypeCount = int(typeEnd) - 1

var typeNames = map[Type]string{
	Firewall:          "firewall",
	LoadBalancer:      "load_balancer",
	TrafficClassifier: "traffic_classifier",
	Router:            "router",
	NAT:               "nat",
	RateLimiter:       "rate_limiter",
	VPNGateway:        "vpn_gateway",
	Monitor:           "monitor",
	DDoSMitigator:     "ddos_mitigator",
	CacheIndex:        "cache_index",
}

// String returns the short NF name.
func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("nf(%d)", int(t))
}

// Valid reports whether t is in the catalogue.
func (t Type) Valid() bool { return t >= Firewall && t < typeEnd }

// AllTypes returns the catalogue in index order.
func AllTypes() []Type {
	ts := make([]Type, 0, TypeCount)
	for t := Firewall; t < typeEnd; t++ {
		ts = append(ts, t)
	}
	return ts
}

// ParseType resolves a short name back to a Type.
func ParseType(name string) (Type, error) {
	for t, n := range typeNames {
		if n == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("nf: unknown type %q", name)
}

// Spec describes how one NF type materializes as a physical NF table.
type Spec struct {
	Type Type
	// Keys are the NF-specific match fields. The data plane prepends
	// tenant-ID and pass exact matches when installing the physical table
	// (§IV, "the match block is added with two fields").
	Keys []pipeline.Key
	// Actions are the action bodies rules may invoke.
	Actions map[string]pipeline.ActionFunc
	// Default is the miss action; physical NFs default to "noop" so that
	// unclaimed traffic passes through unmodified.
	Default string
	// Registers lists stateful arrays the NF needs in its stage,
	// name → size. Names are namespaced by the installer.
	Registers map[string]int
}

// RuleWidthBits returns the match width of one tenant rule including the
// tenant-ID and pass prefix the data plane adds — the constant b of the
// placement model.
func (s *Spec) RuleWidthBits() int {
	w := pipeline.FieldTenantID.Bits() + pipeline.FieldPass.Bits()
	for _, k := range s.Keys {
		w += k.Field.Bits()
	}
	return w
}

// noop leaves the packet untouched (the physical NF's "No-Ops" default).
func noop(ctx *pipeline.Context, p *packet.Packet, params []uint64) {}

// drop marks the packet for discard.
func drop(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
	p.Meta.Drop = true
}

// ForType returns the Spec of an NF type. It panics on an invalid type —
// the catalogue is fixed per deployment cycle (§III assumption 2), so an
// unknown type is a programming error, not an input error. Specs are built
// once and shared (every rule install validates against one): callers must
// not modify them.
func ForType(t Type) *Spec {
	if !t.Valid() {
		panic(fmt.Sprintf("nf: invalid type %d", int(t)))
	}
	return specs[t]
}

// specs holds every type's Spec, indexed by type.
var specs = func() (out [typeEnd]*Spec) {
	for _, t := range AllTypes() {
		out[t] = buildSpec(t)
	}
	return out
}()

func buildSpec(t Type) *Spec {
	switch t {
	case Firewall:
		return firewallSpec()
	case LoadBalancer:
		return loadBalancerSpec()
	case TrafficClassifier:
		return classifierSpec()
	case Router:
		return routerSpec()
	case NAT:
		return natSpec()
	case RateLimiter:
		return rateLimiterSpec()
	case VPNGateway:
		return vpnSpec()
	case Monitor:
		return monitorSpec()
	case DDoSMitigator:
		return ddosSpec()
	case CacheIndex:
		return cacheSpec()
	}
	panic(fmt.Sprintf("nf: invalid type %d", int(t)))
}

// firewallSpec: a stateless ACL over the five-tuple; rules either permit
// (noop) or deny (drop) with ternary wildcarding.
func firewallSpec() *Spec {
	return &Spec{
		Type: Firewall,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Src, Kind: pipeline.MatchTernary},
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchTernary},
			{Field: pipeline.FieldIPProto, Kind: pipeline.MatchTernary},
			{Field: pipeline.FieldDstPort, Kind: pipeline.MatchTernary},
		},
		Actions: map[string]pipeline.ActionFunc{
			"permit": noop,
			"deny":   drop,
			"noop":   noop,
		},
		Default: "noop",
	}
}

// loadBalancerSpec: the paper's three-table LB (tab_lb, tab_lbhash,
// tab_lbselect) folded into one table. Explicit rules pin a flow to a
// backend ("dnat"); the default action computes the five-tuple hash and
// selects from the backend pool registers, emulating
// tab_lbhash → tab_lbselect.
func loadBalancerSpec() *Spec {
	return &Spec{
		Type: LoadBalancer,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchExact}, // VIP
			{Field: pipeline.FieldDstPort, Kind: pipeline.MatchExact},
		},
		Actions: map[string]pipeline.ActionFunc{
			// dnat params: [0]=new dst IP, [1]=new dst port (0 keeps it).
			"dnat": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if p.HasIPv4 && len(params) > 0 {
					p.IPv4.Dst = uint32(params[0])
				}
				if len(params) > 1 && params[1] != 0 {
					setDstPort(p, uint16(params[1]))
				}
			},
			// pool_select emulates tab_lbhash + tab_lbselect: hash the flow,
			// index the pool registers. params: [0]=pool base index,
			// [1]=pool size.
			"pool_select": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) < 2 || params[1] == 0 {
					return
				}
				h := p.FiveTuple().Hash()
				p.Meta.L4Hash = h
				idx := int(params[0]) + int(uint64(h)%params[1])
				if backend := ctx.Regs.Read("lb_pool", idx); backend != 0 && p.HasIPv4 {
					p.IPv4.Dst = uint32(backend)
				}
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"lb_pool": 256},
	}
}

// classifierSpec assigns a traffic class from protocol/port ranges.
func classifierSpec() *Spec {
	return &Spec{
		Type: TrafficClassifier,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPProto, Kind: pipeline.MatchTernary},
			{Field: pipeline.FieldDstPort, Kind: pipeline.MatchRange},
		},
		Actions: map[string]pipeline.ActionFunc{
			// set_class params: [0]=class id.
			"set_class": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) > 0 {
					p.Meta.ClassID = uint16(params[0])
				}
			},
			"noop": noop,
		},
		Default: "noop",
	}
}

// routerSpec: LPM forwarding to an egress port.
func routerSpec() *Spec {
	return &Spec{
		Type: Router,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchLPM},
		},
		Actions: map[string]pipeline.ActionFunc{
			// fwd params: [0]=egress port. Decrements TTL as a router must.
			"fwd": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) > 0 {
					p.Meta.EgressPort = uint16(params[0])
				}
				if p.HasIPv4 && p.IPv4.TTL > 0 {
					p.IPv4.TTL--
					if p.IPv4.TTL == 0 {
						p.Meta.Drop = true
					}
				}
			},
			"noop": noop,
		},
		Default: "noop",
	}
}

// natSpec rewrites the source address/port of outbound flows.
func natSpec() *Spec {
	return &Spec{
		Type: NAT,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Src, Kind: pipeline.MatchExact},
			{Field: pipeline.FieldSrcPort, Kind: pipeline.MatchExact},
		},
		Actions: map[string]pipeline.ActionFunc{
			// snat params: [0]=new src IP, [1]=new src port (0 keeps it).
			"snat": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if p.HasIPv4 && len(params) > 0 {
					p.IPv4.Src = uint32(params[0])
				}
				if len(params) > 1 && params[1] != 0 {
					setSrcPort(p, uint16(params[1]))
				}
			},
			"noop": noop,
		},
		Default: "noop",
	}
}

// rateLimiterSpec: per-class token buckets in stage registers (the
// on-switch rate limiter of He et al., INFOCOM'21, cited as [11]).
func rateLimiterSpec() *Spec {
	return &Spec{
		Type: RateLimiter,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldClassID, Kind: pipeline.MatchExact},
		},
		Actions: map[string]pipeline.ActionFunc{
			// limit params: [0]=bucket index, [1]=rate tokens/ms,
			// [2]=burst tokens. One token = one packet.
			"limit": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) < 3 {
					return
				}
				idx := int(params[0])
				rate, burst := int64(params[1]), int64(params[2])
				nowMs := int64(ctx.NowNs / 1e6)
				last := ctx.Regs.Read("rl_last_ms", idx)
				tokens := ctx.Regs.Read("rl_tokens", idx)
				if nowMs > last {
					tokens += (nowMs - last) * rate
					if tokens > burst {
						tokens = burst
					}
					ctx.Regs.Write("rl_last_ms", idx, nowMs)
				}
				if tokens <= 0 {
					p.Meta.Drop = true
				} else {
					tokens--
				}
				ctx.Regs.Write("rl_tokens", idx, tokens)
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"rl_tokens": 256, "rl_last_ms": 256},
	}
}

// vpnSpec models a site-to-site VPN gateway: packets toward configured
// subnets are marked as tunneled (encap is modeled as a class mark plus a
// payload length increase for the tunnel header).
func vpnSpec() *Spec {
	return &Spec{
		Type: VPNGateway,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchLPM},
		},
		Actions: map[string]pipeline.ActionFunc{
			// encap params: [0]=tunnel id.
			"encap": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) > 0 {
					p.Meta.ClassID = uint16(params[0]) | 0x8000 // tunnel mark
				}
				p.PayloadLen += 28 // modeled ESP+IP overhead
				ctx.Regs.Add("vpn_encap_count", 0, 1)
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"vpn_encap_count": 1},
	}
}

// monitorSpec counts packets and bytes per configured aggregate.
func monitorSpec() *Spec {
	return &Spec{
		Type: Monitor,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Src, Kind: pipeline.MatchTernary},
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchTernary},
		},
		Actions: map[string]pipeline.ActionFunc{
			// count params: [0]=counter index.
			"count": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) == 0 {
					return
				}
				idx := int(params[0])
				ctx.Regs.Add("mon_pkts", idx, 1)
				ctx.Regs.Add("mon_bytes", idx, int64(p.WireLen()))
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"mon_pkts": 1024, "mon_bytes": 1024},
	}
}

// ddosSpec is a SYN-flood mitigator: per-source SYN counters with a
// threshold beyond which SYNs are dropped.
func ddosSpec() *Spec {
	return &Spec{
		Type: DDoSMitigator,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchExact}, // protected host
			{Field: pipeline.FieldTCPFlags, Kind: pipeline.MatchTernary},
		},
		Actions: map[string]pipeline.ActionFunc{
			// syn_guard params: [0]=counter index, [1]=threshold.
			"syn_guard": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) < 2 {
					return
				}
				idx := int(params[0])
				n := ctx.Regs.Add("ddos_syn", idx, 1)
				if n > int64(params[1]) {
					p.Meta.Drop = true
				}
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"ddos_syn": 1024},
	}
}

// cacheSpec models an in-network cache index (NetCache-style, cited as
// [15]): known hot keys (modeled as dst port values) are redirected to the
// cache port and counted.
func cacheSpec() *Spec {
	return &Spec{
		Type: CacheIndex,
		Keys: []pipeline.Key{
			{Field: pipeline.FieldIPv4Dst, Kind: pipeline.MatchExact},
			{Field: pipeline.FieldDstPort, Kind: pipeline.MatchExact},
		},
		Actions: map[string]pipeline.ActionFunc{
			// cache_hit params: [0]=cache egress port, [1]=hit counter index.
			"cache_hit": func(ctx *pipeline.Context, p *packet.Packet, params []uint64) {
				if len(params) > 0 {
					p.Meta.EgressPort = uint16(params[0])
				}
				if len(params) > 1 {
					ctx.Regs.Add("cache_hits", int(params[1]), 1)
				}
			},
			"noop": noop,
		},
		Default:   "noop",
		Registers: map[string]int{"cache_hits": 1024},
	}
}

func setDstPort(p *packet.Packet, port uint16) {
	switch {
	case p.HasTCP:
		p.TCP.DstPort = port
	case p.HasUDP:
		p.UDP.DstPort = port
	}
}

func setSrcPort(p *packet.Packet, port uint16) {
	switch {
	case p.HasTCP:
		p.TCP.SrcPort = port
	case p.HasUDP:
		p.UDP.SrcPort = port
	}
}
