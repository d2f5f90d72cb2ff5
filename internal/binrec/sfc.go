package binrec

import (
	"errors"
	"fmt"
	"sort"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// An SFC is encoded as
//
//	tenant      uvarint
//	bandwidth   float64 (BandwidthGbps)
//	nfs         uvarint count
//	rules       uvarint, the chain's total rule count
//	matches     uvarint, the chain's total match count
//	params      uvarint, the chain's total action-parameter count
//	per NF:     type byte, uvarint rule count, then per rule:
//	            priority varint, match count, matches, action string,
//	            param count, params as uvarints
//
// The three totals let the decoder allocate each chain's rules, matches
// and parameters in one block apiece; they must equal the per-NF counts.
//
// A match is a flag byte naming the pipeline.Match fields that are not
// zero, followed by those fields in flag order. An all-ones mask (an exact
// match) is a flag with no bytes.
const (
	matchValue   = 1 << iota // Value, uvarint
	matchMask                // Mask, uvarint (neither 0 nor all ones)
	matchMaskAll             // Mask is all ones
	matchPrefix              // PrefixLen, varint
	matchLo                  // Lo, uvarint
	matchHi                  // Hi, uvarint
	matchFlags   = 1<<iota - 1
)

// Least encoded sizes, for Count: an NF is a type byte and a rule count;
// a rule a priority, a match count, an action length and a param count.
const (
	minNFBytes   = 2
	minRuleBytes = 4
)

// AppendSFC appends s's encoding to b. It fails only on an NF type outside
// the catalogue, which has no one-byte encoding the decoder accepts.
func AppendSFC(b []byte, s *vswitch.SFC) ([]byte, error) {
	rules, matches, params := 0, 0, 0
	for _, cfg := range s.NFs {
		if !cfg.Type.Valid() {
			return b, fmt.Errorf("binrec: tenant %d: invalid NF type %d", s.Tenant, int(cfg.Type))
		}
		rules += len(cfg.Rules)
		for i := range cfg.Rules {
			matches += len(cfg.Rules[i].Matches)
			params += len(cfg.Rules[i].Params)
		}
	}
	b = AppendUvarint(b, uint64(s.Tenant))
	b = AppendFloat64(b, s.BandwidthGbps)
	b = AppendUvarint(b, uint64(len(s.NFs)))
	b = AppendUvarint(b, uint64(rules))
	b = AppendUvarint(b, uint64(matches))
	b = AppendUvarint(b, uint64(params))
	for _, cfg := range s.NFs {
		b = append(b, byte(cfg.Type))
		b = AppendUvarint(b, uint64(len(cfg.Rules)))
		for i := range cfg.Rules {
			r := &cfg.Rules[i]
			b = AppendVarint(b, int64(r.Priority))
			b = AppendUvarint(b, uint64(len(r.Matches)))
			for j := range r.Matches {
				b = appendMatch(b, &r.Matches[j])
			}
			b = AppendString(b, r.Action)
			b = AppendUvarint(b, uint64(len(r.Params)))
			for _, p := range r.Params {
				b = AppendUvarint(b, p)
			}
		}
	}
	return b, nil
}

func appendMatch(b []byte, m *pipeline.Match) []byte {
	var f byte
	if m.Value != 0 {
		f |= matchValue
	}
	switch m.Mask {
	case 0:
	case ^uint64(0):
		f |= matchMaskAll
	default:
		f |= matchMask
	}
	if m.PrefixLen != 0 {
		f |= matchPrefix
	}
	if m.Lo != 0 {
		f |= matchLo
	}
	if m.Hi != 0 {
		f |= matchHi
	}
	b = append(b, f)
	if f&matchValue != 0 {
		b = AppendUvarint(b, m.Value)
	}
	if f&matchMask != 0 {
		b = AppendUvarint(b, m.Mask)
	}
	if f&matchPrefix != 0 {
		b = AppendVarint(b, int64(m.PrefixLen))
	}
	if f&matchLo != 0 {
		b = AppendUvarint(b, m.Lo)
	}
	if f&matchHi != 0 {
		b = AppendUvarint(b, m.Hi)
	}
	return b
}

var errTotals = errors.New("binrec: SFC rule, match or param counts disagree with its totals")

// SFC decodes one SFC. Every NF passes the checks the wire form's
// conversion runs: a type in the catalogue and nf.Config.Validate.
func (d *Decoder) SFC() *vswitch.SFC {
	s := &vswitch.SFC{Tenant: d.Uint32(), BandwidthGbps: d.Float64()}
	nNFs := d.Count(minNFBytes)
	nRules := d.Count(minRuleBytes)
	nMatches := d.Count(1)
	nParams := d.Count(1)
	if d.err != nil {
		return nil
	}
	cfgs := make([]nf.Config, nNFs)
	if nNFs > 0 {
		s.NFs = make([]*nf.Config, nNFs)
	}
	rules := make([]nf.ConfigRule, nRules)
	matches := make([]pipeline.Match, nMatches)
	params := make([]uint64, nParams)
	for i := range cfgs {
		cfg := &cfgs[i]
		s.NFs[i] = cfg
		cfg.Type = nf.Type(d.Byte())
		if !cfg.Type.Valid() {
			d.Fail(fmt.Errorf("binrec: tenant %d NF %d: invalid type %d", s.Tenant, i, int(cfg.Type)))
			return nil
		}
		n := d.Count(minRuleBytes)
		if n > len(rules) {
			d.Fail(errTotals)
			return nil
		}
		cfg.Rules, rules = rules[:n:n], rules[n:]
		for j := range cfg.Rules {
			r := &cfg.Rules[j]
			r.Priority = d.Int()
			k := d.Count(1)
			if k > len(matches) {
				d.Fail(errTotals)
				return nil
			}
			r.Matches, matches = matches[:k:k], matches[k:]
			for m := range r.Matches {
				d.match(&r.Matches[m])
			}
			r.Action = d.action(cfg.Type)
			if k = d.Count(1); k > len(params) {
				d.Fail(errTotals)
				return nil
			}
			if k > 0 {
				r.Params, params = params[:k:k], params[k:]
				for p := range r.Params {
					r.Params[p] = d.Uvarint()
				}
			}
		}
		if d.err != nil {
			return nil
		}
		if err := cfg.Validate(); err != nil {
			d.Fail(err)
			return nil
		}
	}
	if len(rules)+len(matches)+len(params) != 0 {
		d.Fail(errTotals)
		return nil
	}
	return s
}

func (d *Decoder) match(m *pipeline.Match) {
	f := d.Byte()
	if f&^matchFlags != 0 || f&(matchMask|matchMaskAll) == matchMask|matchMaskAll {
		d.Fail(fmt.Errorf("binrec: invalid match flags %#x", f))
		return
	}
	if f&matchValue != 0 {
		m.Value = d.nonZero()
	}
	if f&matchMaskAll != 0 {
		m.Mask = ^uint64(0)
	} else if f&matchMask != 0 {
		if m.Mask = d.nonZero(); m.Mask == ^uint64(0) {
			d.Fail(errors.New("binrec: all-ones mask spelled out"))
		}
	}
	if f&matchPrefix != 0 {
		if m.PrefixLen = d.Int(); m.PrefixLen == 0 {
			d.Fail(errors.New("binrec: match field flagged present is zero"))
		}
	}
	if f&matchLo != 0 {
		m.Lo = d.nonZero()
	}
	if f&matchHi != 0 {
		m.Hi = d.nonZero()
	}
}

// nonZero reads a uvarint that a flag marked present, so it is not zero.
func (d *Decoder) nonZero() uint64 {
	v := d.Uvarint()
	if v == 0 {
		d.Fail(errors.New("binrec: match field flagged present is zero"))
	}
	return v
}

// actionNames lists each NF type's action names, so a decoded action
// shares the catalogue's string instead of allocating its own.
var actionNames = func() (out [nf.TypeCount + 1][]string) {
	for _, t := range nf.AllTypes() {
		for name := range nf.ForType(t).Actions {
			out[t] = append(out[t], name)
		}
		sort.Strings(out[t])
	}
	return out
}()

func (d *Decoder) action(t nf.Type) string {
	b := d.Bytes()
	for _, name := range actionNames[t] {
		if string(b) == name {
			return name
		}
	}
	return string(b) // not an action of t: Validate rejects it
}
