package pipeline

import (
	"fmt"
	"sort"

	"sfp/internal/packet"
)

// ActionFunc is the body of a P4 action: it mutates the packet (headers and
// metadata) using the rule's action parameters. The context exposes the
// stage's stateful registers.
type ActionFunc func(ctx *Context, p *packet.Packet, params []uint64)

// Context is passed to actions, giving access to pipeline state the action
// may read or update.
type Context struct {
	// StageIndex is the 0-based physical stage executing the action.
	StageIndex int
	// Regs is the register file of the executing stage.
	Regs *RegisterFile
	// NowNs is the simulated timestamp of the packet, for time-dependent
	// actions such as token-bucket rate limiters.
	NowNs float64
}

// Rule is one entry of a match-action table. Matches align positionally
// with the table's key specification.
type Rule struct {
	// Priority orders ternary/range lookups; higher wins. Exact-only tables
	// ignore priority.
	Priority int
	Matches  []Match
	// Action names an action registered on the table.
	Action string
	// Params are the action data (e.g. the next-hop port or rewrite value).
	Params []uint64
	// Rec is the paper's REC argument: when the rule fires in the last
	// stage of a pass, the packet is recirculated and its pass counter
	// incremented (§IV, "NFs in the last stage is specially crafted").
	Rec bool
	// Tenant tags the rule's owner (0 = infrastructure rule), so that a
	// tenant's rules can be bulk-deleted on departure.
	Tenant uint32

	// fn caches the resolved action body at Insert time so the compiled hot
	// path skips the per-packet action-map lookup. Insert validates the
	// action name, so fn is always set for installed rules.
	fn ActionFunc
	// nextOwned chains the rules one tenant owns in a table: the next one,
	// or endOfOwned after the last. It is nil exactly while the rule is not
	// installed.
	nextOwned *Rule
}

// endOfOwned terminates every per-tenant rule chain.
var endOfOwned = &Rule{}

// Table is a match-action table resident in one stage.
//
// Lookup structures are maintained incrementally on Insert/DeleteTenant so
// that Lookup itself is a pure read: concurrent Lookup/Apply calls from
// parallel replay workers are safe as long as rule installation is not
// racing with packet processing (the control plane serializes its own
// updates, mirroring a real switch driver).
type Table struct {
	Name string
	Keys []Key
	// Capacity is the number of entries reserved for this table. The
	// physical NF reserves capacity when installed; rule insertion beyond
	// capacity fails, mirroring SRAM/TCAM exhaustion.
	Capacity int

	// DefaultAction runs when no rule matches ("No-Ops" for physical NFs).
	DefaultAction string
	DefaultParams []uint64

	actions map[string]ActionFunc
	// owned heads each tenant's chain of installed rules (linked through
	// Rule.nextOwned), so a departure visits only the departing tenant's
	// rules; used counts every installed entry (capacity accounting, Used).
	owned map[uint32]*Rule
	used  int
	// scan is the priority-ordered view scanned by generic (non-sharded)
	// ternary/LPM/range lookups, kept sorted on Insert.
	scan []*Rule

	// exactIdx accelerates lookups for all-exact key specs: FNV-1a over the
	// packed key values -> collision bucket. Buckets are verified against
	// the actual match values, so hash collisions cost a compare, never a
	// wrong result.
	exactIdx map[uint64][]*Rule

	// shards buckets rules of tables whose key spec leads with exact
	// (tenant_id, pass) — the shape of every physical NF table SFP installs
	// (§IV) — by that packed prefix. A lookup then scans only the owning
	// tenant's handful of rules instead of every tenant's, making per-packet
	// cost flat in tenant count (the consolidation property virtualization
	// is supposed to preserve).
	shards map[uint64][]*Rule

	// allExact / sharded cache the key-spec classification at build time so
	// the hot path never re-derives it.
	allExact bool
	sharded  bool

	// hits and misses count lookups for observability. Atomic and
	// cache-line padded: parallel replay workers may share one pipeline,
	// and unpadded adjacent counters false-share a line.
	hits, misses counter
}

// NewTable creates a table with the given key specification and entry
// capacity.
func NewTable(name string, keys []Key, capacity int) *Table {
	t := &Table{
		Name:     name,
		Keys:     keys,
		Capacity: capacity,
		actions:  make(map[string]ActionFunc),
	}
	t.allExact = len(keys) > 0
	for _, k := range keys {
		if k.Kind != MatchExact {
			t.allExact = false
			break
		}
	}
	t.sharded = !t.allExact && len(keys) >= 2 &&
		keys[0].Field == FieldTenantID && keys[0].Kind == MatchExact &&
		keys[1].Field == FieldPass && keys[1].Kind == MatchExact
	return t
}

// RegisterAction binds an action name usable by rules of this table.
func (t *Table) RegisterAction(name string, fn ActionFunc) {
	t.actions[name] = fn
}

// SetDefault sets the default (miss) action.
func (t *Table) SetDefault(action string, params ...uint64) {
	t.DefaultAction = action
	t.DefaultParams = params
}

// Sharded reports whether lookups use the tenant-sharded index.
func (t *Table) Sharded() bool { return t.sharded }

// Hits returns the number of lookups that matched a rule.
func (t *Table) Hits() uint64 { return t.hits.Load() }

// Misses returns the number of lookups that fell through to the default.
func (t *Table) Misses() uint64 { return t.misses.Load() }

// FNV-1a constants for the exact-key hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashVal folds one 64-bit key value into an FNV-1a state, byte by byte.
func hashVal(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ ((v >> uint(s)) & 0xff)) * fnvPrime64
	}
	return h
}

// ruleExactHash hashes a rule's exact-match values.
func (t *Table) ruleExactHash(r *Rule) uint64 {
	h := uint64(fnvOffset64)
	for _, m := range r.Matches {
		h = hashVal(h, m.Value)
	}
	return h
}

// packetExactHash hashes a packet's extracted key values.
func (t *Table) packetExactHash(p *packet.Packet) uint64 {
	h := uint64(fnvOffset64)
	for _, k := range t.Keys {
		h = hashVal(h, Extract(p, k.Field))
	}
	return h
}

// shardKey packs a (tenant, pass) pair. Pass is an 8-bit field; values that
// exceed the packing (unreachable from real packets) merely alias into
// another bucket, where full match verification rejects them.
func shardKey(tenant, pass uint64) uint64 {
	return tenant<<8 | pass&0xff
}

// precedes reports whether rule a must be scanned before rule b: higher
// priority first, then longer max prefix (LPM longest-match), with ties
// keeping insertion order. This is exactly the comparator the legacy lazy
// sort used, so sharded and generic scans agree on every tie-break.
func precedes(a, b *Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return maxPrefix(a) > maxPrefix(b)
}

// insertOrdered places r into a list kept sorted by precedes, after any
// equal-ordered rules (stable).
func insertOrdered(list []*Rule, r *Rule) []*Rule {
	pos := sort.Search(len(list), func(i int) bool { return precedes(r, list[i]) })
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = r
	return list
}

// removeRule deletes the first occurrence of r (by pointer) from list.
func removeRule(list []*Rule, r *Rule) []*Rule {
	for i, x := range list {
		if x == r {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}

// Insert adds a rule. It fails if the table is at capacity, if the rule's
// match arity differs from the key spec, if the action is unregistered, or —
// for all-exact tables — if a rule with the identical key already exists
// (real switch drivers reject duplicate exact entries; silently shadowing
// the old rule would leak capacity and resurrect it on index rebuilds).
func (t *Table) Insert(r *Rule) error {
	if len(r.Matches) != len(t.Keys) {
		return fmt.Errorf("table %s: rule has %d matches, key spec has %d", t.Name, len(r.Matches), len(t.Keys))
	}
	fn, ok := t.actions[r.Action]
	if !ok {
		return fmt.Errorf("table %s: unknown action %q", t.Name, r.Action)
	}
	if r.nextOwned != nil {
		return fmt.Errorf("table %s: rule already installed", t.Name)
	}
	r.fn = fn
	if t.used >= t.Capacity {
		return fmt.Errorf("table %s: capacity %d exhausted", t.Name, t.Capacity)
	}
	switch {
	case t.allExact:
		h := t.ruleExactHash(r)
		for _, prev := range t.exactIdx[h] {
			if exactValuesEqual(prev, r) {
				return fmt.Errorf("table %s: duplicate exact key (existing rule tenant %d)", t.Name, prev.Tenant)
			}
		}
		if t.exactIdx == nil {
			t.exactIdx = make(map[uint64][]*Rule)
		}
		t.exactIdx[h] = append(t.exactIdx[h], r)
	case t.sharded:
		if t.shards == nil {
			t.shards = make(map[uint64][]*Rule)
		}
		k := shardKey(r.Matches[0].Value, r.Matches[1].Value)
		t.shards[k] = insertOrdered(t.shards[k], r)
	default:
		t.scan = insertOrdered(t.scan, r)
	}
	if t.owned == nil {
		t.owned = make(map[uint32]*Rule)
	}
	r.nextOwned = endOfOwned
	if head := t.owned[r.Tenant]; head != nil {
		r.nextOwned = head
	}
	t.owned[r.Tenant] = r
	t.used++
	return nil
}

// exactValuesEqual reports whether two rules carry identical exact-key
// values.
func exactValuesEqual(a, b *Rule) bool {
	for i := range a.Matches {
		if a.Matches[i].Value != b.Matches[i].Value {
			return false
		}
	}
	return true
}

// DeleteTenant removes every rule owned by the tenant and returns how many
// entries were freed. Only the departing tenant's rules and index entries
// are visited, so churn cost is proportional to the departing tenant's
// rules, not the table size.
func (t *Table) DeleteTenant(tenant uint32) int {
	return t.unindexTenant(tenant)
}

// DeleteTenants removes every rule owned by any tenant in the set and
// returns how many entries were freed, visiting only those tenants' rules.
func (t *Table) DeleteTenants(tenants map[uint32]bool) int {
	freed := 0
	for tenant := range tenants {
		freed += t.unindexTenant(tenant)
	}
	return freed
}

// unindexTenant removes one tenant's rules from the owner index and the
// lookup structures. The other tenants' shards and exact buckets are left
// alone, and the relative order of the surviving rules is unchanged.
func (t *Table) unindexTenant(tenant uint32) int {
	freed := 0
	for r := t.owned[tenant]; r != nil && r != endOfOwned; {
		switch {
		case t.allExact:
			h := t.ruleExactHash(r)
			if b := removeRule(t.exactIdx[h], r); len(b) > 0 {
				t.exactIdx[h] = b
			} else {
				delete(t.exactIdx, h)
			}
		case t.sharded:
			k := shardKey(r.Matches[0].Value, r.Matches[1].Value)
			if s := removeRule(t.shards[k], r); len(s) > 0 {
				t.shards[k] = s
			} else {
				delete(t.shards, k)
			}
		default:
			t.scan = removeRule(t.scan, r)
		}
		next := r.nextOwned
		r.nextOwned = nil
		r = next
		freed++
	}
	delete(t.owned, tenant)
	t.used -= freed
	return freed
}

// Used returns the number of installed entries.
func (t *Table) Used() int { return t.used }

// RuleWidthBits returns the total match-key width of one entry — the
// constant b in the placement model's memory equation.
func (t *Table) RuleWidthBits() int {
	w := 0
	for _, k := range t.Keys {
		w += k.Field.Bits()
	}
	return w
}

// Lookup finds the highest-priority matching rule, or nil on miss. The hot
// path is allocation-free: exact tables hash the extracted key values
// directly, sharded tables scan only the packet's (tenant, pass) bucket,
// and generic tables scan the pre-sorted rule list.
func (t *Table) Lookup(p *packet.Packet) *Rule {
	if t.allExact {
		for _, r := range t.exactIdx[t.packetExactHash(p)] {
			if t.exactMatches(r, p) {
				t.hits.Add(1)
				return r
			}
		}
		t.misses.Add(1)
		return nil
	}
	list := t.scan
	if t.sharded {
		list = t.shards[shardKey(Extract(p, t.Keys[0].Field), Extract(p, t.Keys[1].Field))]
	}
	for _, r := range list {
		if t.ruleMatches(r, p) {
			t.hits.Add(1)
			return r
		}
	}
	t.misses.Add(1)
	return nil
}

// exactMatches verifies an exact-index candidate against the packet,
// guarding against hash collisions.
func (t *Table) exactMatches(r *Rule, p *packet.Packet) bool {
	for i, k := range t.Keys {
		if Extract(p, k.Field) != r.Matches[i].Value {
			return false
		}
	}
	return true
}

// ruleMatches evaluates every key of r against the packet.
func (t *Table) ruleMatches(r *Rule, p *packet.Packet) bool {
	for i, k := range t.Keys {
		if !r.Matches[i].matches(Extract(p, k.Field), k.Kind, k.Field.Bits()) {
			return false
		}
	}
	return true
}

func maxPrefix(r *Rule) int {
	m := 0
	for _, match := range r.Matches {
		if match.PrefixLen > m {
			m = match.PrefixLen
		}
	}
	return m
}

// Apply executes a lookup followed by the matched (or default) action.
// It returns the matched rule (nil on default) so callers can observe REC.
func (t *Table) Apply(ctx *Context, p *packet.Packet) *Rule {
	r := t.Lookup(p)
	if r != nil {
		if fn := t.actions[r.Action]; fn != nil {
			fn(ctx, p, r.Params)
		}
		if r.Rec {
			p.Meta.Recirculate = true
		}
		return r
	}
	if t.DefaultAction != "" {
		if fn := t.actions[t.DefaultAction]; fn != nil {
			fn(ctx, p, t.DefaultParams)
		}
	}
	return nil
}
