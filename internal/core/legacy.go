package core

import (
	"encoding/json"
	"fmt"

	"sfp/internal/p4rt"
	"sfp/internal/vswitch"
)

// Replay of records written by controllers that journaled JSON payloads
// (kind byte without recBinary). Full SFC definitions ride as p4rt.SFCSpec
// values in p4rt's wire codec and are converted with SFCSpec.ToSFC; the
// thin envelopes are the record types' own JSON encodings. Nothing writes
// these records any more.

// legacyStateRec is a JSON stateRec.
type legacyStateRec struct {
	Provisioned bool            `json:"p,omitempty"`
	SFCs        []*p4rt.SFCSpec `json:"sfcs,omitempty"`
	Live        []liveEntry     `json:"live,omitempty"`
	Placed      []uint32        `json:"placed,omitempty"`
	Layout      [][]bool        `json:"layout,omitempty"`
	Info        *ProvisionInfo  `json:"info,omitempty"`
}

// legacyRegisterRec is a JSON registerRec.
type legacyRegisterRec struct {
	SFCs []*p4rt.SFCSpec `json:"sfcs"`
}

// decodeLegacy decodes a JSON record's body into the payload decodeRec
// returns for the binary record of the same kind. Bare markers ignore
// their body, as they always did.
func decodeLegacy(kind byte, body []byte) (any, error) {
	unmarshal := func(v any) error {
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("core: replay record kind %d: %w", kind, err)
		}
		return nil
	}
	switch kind {
	case recSnapshot, recProvisionBegin, recReconfigBegin:
		var st legacyStateRec
		if err := unmarshal(&st); err != nil {
			return nil, err
		}
		sfcs, err := legacySFCs(st.SFCs)
		if err != nil {
			return nil, err
		}
		return &stateRec{Provisioned: st.Provisioned, SFCs: sfcs, Live: st.Live,
			Placed: st.Placed, Layout: st.Layout, Info: st.Info}, nil
	case recArriveRegister:
		var r legacyRegisterRec
		if err := unmarshal(&r); err != nil {
			return nil, err
		}
		sfcs, err := legacySFCs(r.SFCs)
		if err != nil {
			return nil, err
		}
		return &registerRec{SFCs: sfcs}, nil
	case recPlaceBegin:
		var p placeRec
		return &p, unmarshal(&p)
	case recPlaceAbort:
		var a abortRec
		return &a, unmarshal(&a)
	case recDepartBegin:
		var d departRec
		return &d, unmarshal(&d)
	case recDepartManyBegin:
		var d departManyRec
		return &d, unmarshal(&d)
	case recDepartManyCommit, recDepartCommit:
		if len(body) == 0 {
			return nil, nil
		}
		var a abortRec
		return &a, unmarshal(&a)
	case recProvisionCommit, recProvisionAbort, recPlaceCommit, recDepartAbort,
		recReconfigCommit, recReconfigAbort, recDepartManyAbort:
		return nil, nil
	}
	return nil, fmt.Errorf("core: unknown journal record kind %d", kind)
}

func legacySFCs(specs []*p4rt.SFCSpec) ([]*vswitch.SFC, error) {
	out := make([]*vswitch.SFC, len(specs))
	for i, spec := range specs {
		if spec == nil {
			return nil, fmt.Errorf("core: replay: null sfc")
		}
		sfc, err := spec.ToSFC()
		if err != nil {
			return nil, fmt.Errorf("core: replay sfc %d: %w", spec.Tenant, err)
		}
		out[i] = sfc
	}
	return out, nil
}
